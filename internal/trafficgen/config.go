// Package trafficgen synthesizes KDD-99-style network traffic: normal
// service sessions (HTTP, SMTP, FTP, Telnet, DNS, ...) and the canonical
// KDD attack families, generated as raw connection events and converted to
// full 41-feature records via the internal/flowstats window statistics.
//
// The generator replaces the KDD Cup 99 dataset, which cannot be downloaded
// in this offline environment (see DESIGN.md, "Reproduction gates and
// substitutions"). It reproduces the distributional signatures each attack
// imprints on the KDD features — e.g. a neptune SYN flood yields S0 flags,
// near-1 serror_rate and count in the hundreds, while a portsweep yields
// REJ flags and near-1 diff_srv_rate — which is exactly the structure that
// SOM-family detectors cluster on.
package trafficgen

import (
	"errors"
	"fmt"
	"sort"
)

// ErrBadConfig is returned when a Config fails validation.
var ErrBadConfig = errors.New("trafficgen: invalid config")

// Config controls one synthetic trace.
type Config struct {
	// Seed drives all randomness; identical configs generate identical
	// traces.
	Seed int64
	// Duration is the virtual trace length in seconds. Events are placed
	// in [0, Duration).
	Duration float64
	// NormalSessions is the number of legitimate sessions (each session
	// yields one or more connection records).
	NormalSessions int
	// AttackEpisodes maps a KDD attack label to the number of episodes of
	// that attack. Each episode produces a label-dependent burst of
	// records (a SYN-flood episode yields hundreds, an R2L episode a
	// handful).
	AttackEpisodes map[string]int
	// Clients and Servers size the simulated host population.
	Clients, Servers int
	// Noise in [0, 1] blurs the class structure: it scales byte/duration
	// jitter and the probability of protocol anomalies inside normal
	// traffic (flag errors, retries), which raises the Bayes error of the
	// dataset. 0 gives the cleanest separation.
	Noise float64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Duration <= 0:
		return fmt.Errorf("duration %v <= 0: %w", c.Duration, ErrBadConfig)
	case c.NormalSessions < 0:
		return fmt.Errorf("normalSessions %d < 0: %w", c.NormalSessions, ErrBadConfig)
	case c.Clients < 1 || c.Servers < 1:
		return fmt.Errorf("need at least 1 client and 1 server: %w", ErrBadConfig)
	case c.Noise < 0 || c.Noise > 1:
		return fmt.Errorf("noise %v outside [0, 1]: %w", c.Noise, ErrBadConfig)
	}
	total := c.NormalSessions
	for label, n := range c.AttackEpisodes {
		if n < 0 {
			return fmt.Errorf("attack %q episode count %d < 0: %w", label, n, ErrBadConfig)
		}
		if _, ok := episodeGens[label]; !ok {
			return fmt.Errorf("unknown attack label %q: %w", label, ErrBadConfig)
		}
		total += n
	}
	if total == 0 {
		return fmt.Errorf("config generates no traffic: %w", ErrBadConfig)
	}
	return nil
}

// SupportedAttacks returns the attack labels the generator implements,
// sorted alphabetically.
func SupportedAttacks() []string {
	out := make([]string, 0, len(episodeGens))
	for label := range episodeGens {
		out = append(out, label)
	}
	sort.Strings(out)
	return out
}

// KDD99Like returns the headline scenario: a DoS-heavy mix approximating
// the KDD Cup 99 10% training-set proportions, roughly 45-55k records.
func KDD99Like(seed int64) Config {
	return Config{
		Seed:           seed,
		Duration:       7200,
		NormalSessions: 4500, // ~12k normal records
		Clients:        120,
		Servers:        40,
		Noise:          0.15,
		AttackEpisodes: map[string]int{
			// DoS (dominates record count, as in KDD-99).
			"neptune": 28, "smurf": 18, "back": 24, "teardrop": 10, "pod": 10, "land": 12,
			// Probe.
			"portsweep": 36, "ipsweep": 36, "nmap": 24, "satan": 28,
			// R2L (low volume).
			"guess_passwd": 45, "warezclient": 30, "warezmaster": 10,
			"ftp_write": 8, "imap": 10, "phf": 6, "multihop": 5, "spy": 3,
			// U2R (rare).
			"buffer_overflow": 12, "rootkit": 6, "loadmodule": 5, "perl": 2,
		},
	}
}

// Small returns a fast scenario (~4-6k records) for tests and examples.
func Small(seed int64) Config {
	return Config{
		Seed:           seed,
		Duration:       1200,
		NormalSessions: 700,
		Clients:        40,
		Servers:        15,
		Noise:          0.15,
		AttackEpisodes: map[string]int{
			"neptune": 4, "smurf": 3, "back": 4, "teardrop": 2, "pod": 2, "land": 3,
			"portsweep": 6, "ipsweep": 6, "nmap": 4, "satan": 5,
			"guess_passwd": 8, "warezclient": 5, "imap": 3,
			"buffer_overflow": 3, "rootkit": 2,
		},
	}
}

// HardMix returns the stress scenario: higher noise, more low-volume
// attacks relative to DoS, used for the hard-case evaluation.
func HardMix(seed int64) Config {
	c := KDD99Like(seed)
	c.Noise = 0.45
	c.AttackEpisodes = map[string]int{
		"neptune": 10, "smurf": 6, "back": 10, "teardrop": 5, "pod": 5, "land": 6,
		"portsweep": 30, "ipsweep": 30, "nmap": 20, "satan": 24,
		"guess_passwd": 70, "warezclient": 45, "warezmaster": 16,
		"ftp_write": 12, "imap": 14, "phf": 10, "multihop": 8, "spy": 5,
		"buffer_overflow": 18, "rootkit": 10, "loadmodule": 8, "perl": 4,
	}
	return c
}

// WithoutAttacks returns a copy of cfg with the given labels removed from
// the episode mix — used to hold attacks out of training for the novelty
// (unseen-attack) ablation.
func WithoutAttacks(cfg Config, labels ...string) Config {
	out := cfg
	out.AttackEpisodes = make(map[string]int, len(cfg.AttackEpisodes))
	drop := make(map[string]bool, len(labels))
	for _, l := range labels {
		drop[l] = true
	}
	for l, n := range cfg.AttackEpisodes {
		if !drop[l] {
			out.AttackEpisodes[l] = n
		}
	}
	return out
}
