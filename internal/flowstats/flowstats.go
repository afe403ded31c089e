// Package flowstats computes the derived traffic features of the KDD-99
// schema from a time-ordered stream of raw connection events: the nine
// time-based features over a two-second sliding window (count, srv_count,
// serror_rate, ...) and the ten host-based features over a window of the
// last hundred connections to the same destination host (dst_host_*).
//
// This is the part of the original KDD feature pipeline (derived from Bro
// logs) that turns per-connection observations into the contextual
// statistics the detectors actually cluster on: a SYN flood is invisible in
// a single connection record but unmistakable in count/serror_rate.
package flowstats

import (
	"errors"
	"fmt"
)

// TimeWindow is the KDD time-based feature window in seconds.
const TimeWindow = 2.0

// HostWindow is the KDD host-based feature window in connections.
const HostWindow = 100

// ErrOutOfOrder is returned when a connection is observed with a timestamp
// earlier than a previously observed one.
var ErrOutOfOrder = errors.New("flowstats: connections must arrive in time order")

// Conn is one raw connection event, the input to the tracker. It carries
// only the fields the derived features depend on.
type Conn struct {
	// Time is the connection start time in seconds since the trace start.
	Time float64
	// SrcHost and DstHost identify the endpoints (opaque IDs).
	SrcHost, DstHost int
	// SrcPort is the source port (used by dst_host_same_src_port_rate).
	SrcPort int
	// Service is the destination service name.
	Service string
	// Flag is the KDD connection-status flag (SF, S0, REJ, ...).
	Flag string
}

// Derived holds the 19 derived features for one connection: the nine
// time-window features and the ten host-window features.
type Derived struct {
	// Count is connections to the same destination host in the past two
	// seconds, including this one.
	Count float64
	// SrvCount is connections to the same service in the past two seconds,
	// including this one.
	SrvCount float64
	// SerrorRate is the SYN-error fraction of Count.
	SerrorRate float64
	// SrvSerrorRate is the SYN-error fraction of SrvCount.
	SrvSerrorRate float64
	// RerrorRate is the REJ fraction of Count.
	RerrorRate float64
	// SrvRerrorRate is the REJ fraction of SrvCount.
	SrvRerrorRate float64
	// SameSrvRate is the same-service fraction of Count.
	SameSrvRate float64
	// DiffSrvRate is the different-service fraction of Count.
	DiffSrvRate float64
	// SrvDiffHostRate is the different-host fraction of SrvCount.
	SrvDiffHostRate float64

	// DstHostCount is the size of the host window (up to HostWindow).
	DstHostCount float64
	// DstHostSrvCount is same-service connections in the host window.
	DstHostSrvCount float64
	// DstHostSameSrvRate is DstHostSrvCount / DstHostCount.
	DstHostSameSrvRate float64
	// DstHostDiffSrvRate is 1 - DstHostSameSrvRate.
	DstHostDiffSrvRate float64
	// DstHostSameSrcPortRate is the same-source-port fraction in the host
	// window.
	DstHostSameSrcPortRate float64
	// DstHostSrvDiffHostRate is the fraction of same-service connections
	// in the host window that came from a different source host.
	DstHostSrvDiffHostRate float64
	// DstHostSerrorRate is the SYN-error fraction in the host window.
	DstHostSerrorRate float64
	// DstHostSrvSerrorRate is the SYN-error fraction of same-service
	// connections in the host window.
	DstHostSrvSerrorRate float64
	// DstHostRerrorRate is the REJ fraction in the host window.
	DstHostRerrorRate float64
	// DstHostSrvRerrorRate is the REJ fraction of same-service connections
	// in the host window.
	DstHostSrvRerrorRate float64
}

// IsSynError reports whether flag indicates a half-open connection (the
// KDD "serror" condition).
func IsSynError(flag string) bool {
	switch flag {
	case "S0", "S1", "S2", "S3":
		return true
	default:
		return false
	}
}

// IsRejError reports whether flag indicates a rejected connection (the
// KDD "rerror" condition).
func IsRejError(flag string) bool { return flag == "REJ" }

// Tracker computes derived features over a time-ordered connection stream.
// It is not safe for concurrent use.
type Tracker struct {
	lastTime float64
	started  bool

	// recent is a FIFO of connections within the time window, oldest
	// first, stored as a slice with a moving head to amortize eviction.
	recent []Conn
	head   int

	// hostWin maps destination host to its ring of the last HostWindow
	// connections.
	hostWin map[int]*hostRing
}

// hostRing is a fixed-capacity ring of the most recent connections to one
// destination host.
type hostRing struct {
	buf  [HostWindow]hostEntry
	size int
	next int
}

type hostEntry struct {
	srcHost int
	srcPort int
	service string
	serror  bool
	rerror  bool
}

func (h *hostRing) add(e hostEntry) {
	h.buf[h.next] = e
	h.next = (h.next + 1) % HostWindow
	if h.size < HostWindow {
		h.size++
	}
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{hostWin: make(map[int]*hostRing)}
}

// Observe folds one connection into the tracker and returns its derived
// features. KDD semantics include the current connection in every window,
// so the features are computed after insertion. Connections must arrive in
// non-decreasing time order.
func (t *Tracker) Observe(c Conn) (Derived, error) {
	if t.started && c.Time < t.lastTime {
		return Derived{}, fmt.Errorf("connection at %v after %v: %w", c.Time, t.lastTime, ErrOutOfOrder)
	}
	t.started = true
	t.lastTime = c.Time

	// Evict connections older than the time window.
	cutoff := c.Time - TimeWindow
	for t.head < len(t.recent) && t.recent[t.head].Time < cutoff {
		t.head++
	}
	// Compact the backing slice when the dead prefix dominates.
	if t.head > 4096 && t.head*2 > len(t.recent) {
		t.recent = append(t.recent[:0], t.recent[t.head:]...)
		t.head = 0
	}
	t.recent = append(t.recent, c)

	ring, ok := t.hostWin[c.DstHost]
	if !ok {
		ring = &hostRing{}
		t.hostWin[c.DstHost] = ring
	}
	ring.add(hostEntry{
		srcHost: c.SrcHost,
		srcPort: c.SrcPort,
		service: c.Service,
		serror:  IsSynError(c.Flag),
		rerror:  IsRejError(c.Flag),
	})

	var d Derived
	t.timeFeatures(&c, &d)
	hostFeatures(ring, &c, &d)
	return d, nil
}

// timeFeatures fills the nine 2-second-window features.
func (t *Tracker) timeFeatures(c *Conn, d *Derived) {
	var (
		count, srvCount               int
		serror, srvSerror             int
		rerror, srvRerror             int
		sameSrv, diffSrv, srvDiffHost int
	)
	for i := t.head; i < len(t.recent); i++ {
		p := &t.recent[i]
		sameHost := p.DstHost == c.DstHost
		sameService := p.Service == c.Service
		if sameHost {
			count++
			if IsSynError(p.Flag) {
				serror++
			}
			if IsRejError(p.Flag) {
				rerror++
			}
			if sameService {
				sameSrv++
			} else {
				diffSrv++
			}
		}
		if sameService {
			srvCount++
			if IsSynError(p.Flag) {
				srvSerror++
			}
			if IsRejError(p.Flag) {
				srvRerror++
			}
			if !sameHost {
				srvDiffHost++
			}
		}
	}
	d.Count = float64(count)
	d.SrvCount = float64(srvCount)
	if count > 0 {
		fc := float64(count)
		d.SerrorRate = float64(serror) / fc
		d.RerrorRate = float64(rerror) / fc
		d.SameSrvRate = float64(sameSrv) / fc
		d.DiffSrvRate = float64(diffSrv) / fc
	}
	if srvCount > 0 {
		fs := float64(srvCount)
		d.SrvSerrorRate = float64(srvSerror) / fs
		d.SrvRerrorRate = float64(srvRerror) / fs
		d.SrvDiffHostRate = float64(srvDiffHost) / fs
	}
}

// hostFeatures fills the ten host-window features from the ring of the
// connection's destination host.
func hostFeatures(ring *hostRing, c *Conn, d *Derived) {
	var (
		srvCount, samePort   int
		serror, rerror       int
		srvSerror, srvRerror int
		srvDiffHost          int
	)
	for i := 0; i < ring.size; i++ {
		e := &ring.buf[i]
		if e.serror {
			serror++
		}
		if e.rerror {
			rerror++
		}
		if e.srcPort == c.SrcPort {
			samePort++
		}
		if e.service == c.Service {
			srvCount++
			if e.serror {
				srvSerror++
			}
			if e.rerror {
				srvRerror++
			}
			if e.srcHost != c.SrcHost {
				srvDiffHost++
			}
		}
	}
	n := float64(ring.size)
	d.DstHostCount = n
	d.DstHostSrvCount = float64(srvCount)
	if ring.size > 0 {
		d.DstHostSameSrvRate = float64(srvCount) / n
		d.DstHostDiffSrvRate = 1 - d.DstHostSameSrvRate
		d.DstHostSameSrcPortRate = float64(samePort) / n
		d.DstHostSerrorRate = float64(serror) / n
		d.DstHostRerrorRate = float64(rerror) / n
	}
	if srvCount > 0 {
		fs := float64(srvCount)
		d.DstHostSrvDiffHostRate = float64(srvDiffHost) / fs
		d.DstHostSrvSerrorRate = float64(srvSerror) / fs
		d.DstHostSrvRerrorRate = float64(srvRerror) / fs
	}
}
