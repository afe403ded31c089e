package trafficgen

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"ghsom/internal/kdd"
)

// checkRanges reports the first schema violation of a generated record:
// a categorical value outside the KDD-99 vocabulary, an empty service, a
// negative volume or a rate outside [0, 1].
func checkRanges(r *kdd.Record) error {
	if !slices.Contains(kdd.Protocols, r.Protocol) {
		return fmt.Errorf("unknown protocol %q", r.Protocol)
	}
	if !slices.Contains(kdd.Flags, r.Flag) {
		return fmt.Errorf("unknown flag %q", r.Flag)
	}
	if r.Service == "" {
		return errors.New("empty service")
	}
	if r.Duration < 0 || r.SrcBytes < 0 || r.DstBytes < 0 {
		return errors.New("negative volume feature")
	}
	rates := []float64{
		r.SerrorRate, r.SrvSerrorRate, r.RerrorRate, r.SrvRerrorRate,
		r.SameSrvRate, r.DiffSrvRate, r.SrvDiffHostRate,
		r.DstHostSameSrvRate, r.DstHostDiffSrvRate, r.DstHostSameSrcPortRate,
		r.DstHostSrvDiffHostRate, r.DstHostSerrorRate, r.DstHostSrvSerrorRate,
		r.DstHostRerrorRate, r.DstHostSrvRerrorRate,
	}
	for i, v := range rates {
		if v < 0 || v > 1 {
			return fmt.Errorf("rate %d = %v outside [0, 1]", i, v)
		}
	}
	return nil
}

// kddTrainLabels is the label set of the KDD-99 training data; the
// corrected test set adds the novel attacks.
var kddTrainLabels = map[string]bool{
	"normal": true,
	"back":   true, "land": true, "neptune": true, "pod": true, "smurf": true, "teardrop": true,
	"ipsweep": true, "nmap": true, "portsweep": true, "satan": true,
	"ftp_write": true, "guess_passwd": true, "imap": true, "multihop": true,
	"phf": true, "spy": true, "warezclient": true, "warezmaster": true,
	"buffer_overflow": true, "loadmodule": true, "perl": true, "rootkit": true,
}

// categoryCounts tallies records per category.
func categoryCounts(recs []kdd.Record) map[kdd.Category]int {
	out := make(map[kdd.Category]int)
	for i := range recs {
		out[recs[i].Category()]++
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	if err := KDD99Like(1).Validate(); err != nil {
		t.Fatalf("KDD99Like invalid: %v", err)
	}
	if err := Small(1).Validate(); err != nil {
		t.Fatalf("Small invalid: %v", err)
	}
	if err := HardMix(1).Validate(); err != nil {
		t.Fatalf("HardMix invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero duration", func(c *Config) { c.Duration = 0 }},
		{"negative sessions", func(c *Config) { c.NormalSessions = -1 }},
		{"no clients", func(c *Config) { c.Clients = 0 }},
		{"no servers", func(c *Config) { c.Servers = 0 }},
		{"noise above one", func(c *Config) { c.Noise = 1.5 }},
		{"negative noise", func(c *Config) { c.Noise = -0.1 }},
		{"unknown attack", func(c *Config) { c.AttackEpisodes = map[string]int{"zeroday": 1} }},
		{"negative episodes", func(c *Config) { c.AttackEpisodes = map[string]int{"neptune": -1} }},
		{"empty trace", func(c *Config) { c.NormalSessions = 0; c.AttackEpisodes = nil }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := Small(1)
			tt.mutate(&cfg)
			if err := cfg.Validate(); !errors.Is(err, ErrBadConfig) {
				t.Errorf("Validate = %v, want ErrBadConfig", err)
			}
			if _, err := Generate(cfg); err == nil {
				t.Error("Generate accepted invalid config")
			}
		})
	}
}

func TestSupportedAttacksCoverTaxonomy(t *testing.T) {
	attacks := SupportedAttacks()
	// 22 training-set attacks + 9 corrected-test-set novel attacks.
	if len(attacks) != 31 {
		t.Errorf("SupportedAttacks has %d labels, want 31", len(attacks))
	}
	for _, a := range attacks {
		if kdd.CategoryOf(a) == kdd.Unknown || kdd.CategoryOf(a) == kdd.Normal {
			t.Errorf("attack %q not a known attack label", a)
		}
	}
}

func TestNovelAttackGeneration(t *testing.T) {
	base := Config{
		Seed: 8, Duration: 600, NormalSessions: 100, Clients: 20, Servers: 8,
	}
	cfg := WithNovelAttacks(base, 1)
	recs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for i := range recs {
		if err := checkRanges(&recs[i]); err != nil {
			t.Fatalf("record %d (%s) invalid: %v", i, recs[i].Label, err)
		}
		counts[recs[i].Label]++
	}
	for label := range NovelAttackEpisodes(1) {
		if counts[label] == 0 {
			t.Errorf("no %s records generated", label)
		}
		if kdd.CategoryOf(label) == kdd.Unknown || kddTrainLabels[label] {
			t.Errorf("%s should be a novel label", label)
		}
	}
	// Spot-check signatures.
	var mailbombSmtp, snmpUDP, tunnelLong bool
	for i := range recs {
		switch recs[i].Label {
		case "mailbomb":
			if recs[i].Service == "smtp" && recs[i].SrcBytes > 3000 {
				mailbombSmtp = true
			}
		case "snmpguess":
			if recs[i].Protocol == "udp" && recs[i].DstBytes == 0 {
				snmpUDP = true
			}
		case "httptunnel":
			if recs[i].Duration > 100 {
				tunnelLong = true
			}
		}
	}
	if !mailbombSmtp || !snmpUDP || !tunnelLong {
		t.Errorf("novel attack signatures missing: mailbomb=%v snmp=%v tunnel=%v",
			mailbombSmtp, snmpUDP, tunnelLong)
	}
	// WithNovelAttacks must not mutate the input.
	if len(base.AttackEpisodes) != 0 {
		t.Error("WithNovelAttacks mutated input config")
	}
}

func TestGenerateSmall(t *testing.T) {
	recs, err := Generate(Small(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 2000 {
		t.Fatalf("Small produced only %d records", len(recs))
	}
	counts := categoryCounts(recs)
	for _, cat := range kdd.Categories() {
		if counts[cat] == 0 {
			t.Errorf("no records of category %v", cat)
		}
	}
	if counts[kdd.Unknown] != 0 {
		t.Errorf("%d records with unknown labels", counts[kdd.Unknown])
	}
	// All records must be schema-valid.
	bad := 0
	for i := range recs {
		if err := checkRanges(&recs[i]); err != nil {
			if bad < 5 {
				t.Errorf("record %d invalid: %v", i, err)
			}
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%d invalid records", bad)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Small(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Small(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs between identical-seed runs", i)
		}
	}
}

func TestGenerateSeedSensitivity(t *testing.T) {
	a, _ := Generate(Small(1))
	b, _ := Generate(Small(2))
	if len(a) == len(b) {
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical traces")
		}
	}
}

func TestAttackSignatures(t *testing.T) {
	cfg := Small(3)
	recs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := make(map[string][]kdd.Record)
	for _, r := range recs {
		byLabel[r.Label] = append(byLabel[r.Label], r)
	}

	// neptune: S0 flags, high serror rate on average.
	nep := byLabel["neptune"]
	if len(nep) < 100 {
		t.Fatalf("only %d neptune records", len(nep))
	}
	var s0, highSerror, highCount int
	for _, r := range nep {
		if r.Flag == "S0" {
			s0++
		}
		if r.SerrorRate > 0.8 {
			highSerror++
		}
		if r.Count > 20 {
			highCount++
		}
	}
	if s0 != len(nep) {
		t.Errorf("neptune: %d/%d records have S0", s0, len(nep))
	}
	if float64(highSerror)/float64(len(nep)) < 0.7 {
		t.Errorf("neptune: only %d/%d records with high serror_rate", highSerror, len(nep))
	}
	if float64(highCount)/float64(len(nep)) < 0.5 {
		t.Errorf("neptune: only %d/%d records with high count", highCount, len(nep))
	}

	// smurf: icmp ecr_i, srcBytes 1032.
	for _, r := range byLabel["smurf"] {
		if r.Protocol != "icmp" || r.Service != "ecr_i" {
			t.Error("smurf record not icmp/ecr_i")
			break
		}
		if r.SrcBytes != 1032 {
			t.Error("smurf src_bytes not 1032")
			break
		}
	}

	// portsweep: high diff_srv_rate or rerror on average.
	ps := byLabel["portsweep"]
	if len(ps) < 30 {
		t.Fatalf("only %d portsweep records", len(ps))
	}
	var rej int
	for _, r := range ps {
		if r.Flag == "REJ" || r.Flag == "S0" {
			rej++
		}
	}
	if rej != len(ps) {
		t.Errorf("portsweep: %d/%d REJ|S0", rej, len(ps))
	}

	// guess_passwd: failed logins present.
	gp := byLabel["guess_passwd"]
	if len(gp) == 0 {
		t.Fatal("no guess_passwd records")
	}
	for _, r := range gp {
		if r.NumFailedLogins < 1 {
			t.Error("guess_passwd without failed logins")
			break
		}
	}

	// buffer_overflow: root shell and login.
	bo := byLabel["buffer_overflow"]
	if len(bo) == 0 {
		t.Fatal("no buffer_overflow records")
	}
	for _, r := range bo {
		if !r.LoggedIn {
			t.Error("buffer_overflow without login")
			break
		}
		if r.RootShell != 1 {
			t.Error("buffer_overflow without root shell")
			break
		}
	}

	// land: the land bit.
	for _, r := range byLabel["land"] {
		if !r.Land {
			t.Error("land record without land bit")
			break
		}
	}

	// teardrop: wrong fragments on udp.
	for _, r := range byLabel["teardrop"] {
		if r.Protocol != "udp" || r.WrongFragment == 0 {
			t.Error("teardrop signature wrong")
			break
		}
	}

	// Normal traffic: overwhelmingly SF, low error rates.
	norm := byLabel["normal"]
	if len(norm) < 500 {
		t.Fatalf("only %d normal records", len(norm))
	}
	var sf int
	for _, r := range norm {
		if r.Flag == "SF" {
			sf++
		}
	}
	if float64(sf)/float64(len(norm)) < 0.85 {
		t.Errorf("normal: only %d/%d SF", sf, len(norm))
	}
}

func TestWithoutAttacks(t *testing.T) {
	cfg := Small(1)
	held := WithoutAttacks(cfg, "neptune", "smurf")
	if _, ok := held.AttackEpisodes["neptune"]; ok {
		t.Error("neptune not removed")
	}
	if _, ok := held.AttackEpisodes["portsweep"]; !ok {
		t.Error("portsweep should remain")
	}
	// Original untouched.
	if _, ok := cfg.AttackEpisodes["neptune"]; !ok {
		t.Error("WithoutAttacks mutated input config")
	}
	recs, err := Generate(held)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Label == "neptune" || r.Label == "smurf" {
			t.Fatal("held-out attack still generated")
		}
	}
}

func TestOnlyAttacks(t *testing.T) {
	cfg := Small(1)
	only := cfg
	only.AttackEpisodes = map[string]int{"neptune": cfg.AttackEpisodes["neptune"]}
	recs, err := Generate(only)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.IsAttack() && r.Label != "neptune" {
			t.Fatalf("unexpected attack %q", r.Label)
		}
	}
}

func TestGenerateSequence(t *testing.T) {
	quiet := Config{
		Seed: 1, Duration: 300, NormalSessions: 200, Clients: 10, Servers: 5,
	}
	noisy := Config{
		Seed: 2, Duration: 300, NormalSessions: 100, Clients: 10, Servers: 5,
		AttackEpisodes: map[string]int{"neptune": 2},
	}
	records, err := GenerateSequence(quiet, noisy)
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1 contributes only normal traffic; neptune appears after it.
	firstNeptune := -1
	for i, r := range records {
		if r.Label == "neptune" {
			firstNeptune = i
			break
		}
	}
	if firstNeptune < 0 {
		t.Fatal("no neptune in phase 2")
	}
	q1, err := Generate(quiet)
	if err != nil {
		t.Fatal(err)
	}
	if firstNeptune < len(q1) {
		t.Errorf("attack at %d inside quiet phase of %d records", firstNeptune, len(q1))
	}
	if len(records) <= len(q1) {
		t.Error("phase 2 contributed nothing")
	}
	if _, err := GenerateSequence(); err == nil {
		t.Error("empty phase list accepted")
	}
}

func TestRecordsEncodable(t *testing.T) {
	recs, err := Generate(Small(4))
	if err != nil {
		t.Fatal(err)
	}
	enc := kdd.NewEncoder(recs, kdd.EncoderConfig{LogTransform: true})
	d := enc.Dim()
	flat := make([]float64, len(recs)*d)
	if err := enc.EncodeBatch(recs, flat); err != nil {
		t.Fatal(err)
	}
	for i, x := range flat {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("record %d encodes to non-finite value", i/d)
		}
	}
}

func TestDoSDominatesKDD99Like(t *testing.T) {
	// The KDD99-like scenario must be DoS-heavy like the original data.
	recs, err := Generate(KDD99Like(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 20000 {
		t.Fatalf("KDD99Like produced only %d records", len(recs))
	}
	counts := categoryCounts(recs)
	if counts[kdd.DoS] <= counts[kdd.Normal] {
		t.Errorf("DoS (%d) should outnumber normal (%d)", counts[kdd.DoS], counts[kdd.Normal])
	}
	if counts[kdd.U2R] >= counts[kdd.Probe] {
		t.Errorf("U2R (%d) should be rare vs probe (%d)", counts[kdd.U2R], counts[kdd.Probe])
	}
}
