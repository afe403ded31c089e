package flowstats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func mustObserve(t *testing.T, tr *Tracker, c Conn) Derived {
	t.Helper()
	d, err := tr.Observe(c)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFirstConnection(t *testing.T) {
	tr := NewTracker()
	d := mustObserve(t, tr, Conn{Time: 0, SrcHost: 1, DstHost: 2, SrcPort: 40000, Service: "http", Flag: "SF"})
	if d.Count != 1 || d.SrvCount != 1 {
		t.Errorf("counts = %v/%v, want 1/1", d.Count, d.SrvCount)
	}
	if d.SameSrvRate != 1 || d.DiffSrvRate != 0 {
		t.Errorf("srv rates = %v/%v", d.SameSrvRate, d.DiffSrvRate)
	}
	if d.SerrorRate != 0 || d.RerrorRate != 0 {
		t.Errorf("error rates = %v/%v", d.SerrorRate, d.RerrorRate)
	}
	if d.DstHostCount != 1 || d.DstHostSrvCount != 1 {
		t.Errorf("host counts = %v/%v", d.DstHostCount, d.DstHostSrvCount)
	}
	if d.DstHostSameSrcPortRate != 1 {
		t.Errorf("same src port rate = %v, want 1 (only itself)", d.DstHostSameSrcPortRate)
	}
}

func TestTimeWindowCounting(t *testing.T) {
	tr := NewTracker()
	base := Conn{SrcHost: 1, DstHost: 2, SrcPort: 40000, Service: "http", Flag: "SF"}
	for i := 0; i < 5; i++ {
		c := base
		c.Time = float64(i) * 0.1
		mustObserve(t, tr, c)
	}
	c := base
	c.Time = 0.5
	d := mustObserve(t, tr, c)
	if d.Count != 6 {
		t.Errorf("Count = %v, want 6", d.Count)
	}
	// A connection to a different host shares the service window only.
	c2 := Conn{Time: 0.6, SrcHost: 1, DstHost: 9, SrcPort: 40001, Service: "http", Flag: "SF"}
	d2 := mustObserve(t, tr, c2)
	if d2.Count != 1 {
		t.Errorf("different-host Count = %v, want 1", d2.Count)
	}
	if d2.SrvCount != 7 {
		t.Errorf("SrvCount = %v, want 7", d2.SrvCount)
	}
	if d2.SrvDiffHostRate <= 0.8 {
		t.Errorf("SrvDiffHostRate = %v, want high", d2.SrvDiffHostRate)
	}
}

func TestTimeWindowEviction(t *testing.T) {
	tr := NewTracker()
	base := Conn{SrcHost: 1, DstHost: 2, SrcPort: 40000, Service: "http", Flag: "SF"}
	c := base
	c.Time = 0
	mustObserve(t, tr, c)
	// 2.5 seconds later the first connection is outside the 2s window.
	c = base
	c.Time = 2.5
	d := mustObserve(t, tr, c)
	if d.Count != 1 {
		t.Errorf("Count after window expiry = %v, want 1", d.Count)
	}
	// Exactly at the boundary (cutoff = Time - 2): a connection at t=0.5
	// is included when the probe is at 2.5.
	c = base
	c.Time = 2.5
	d = mustObserve(t, tr, c)
	if d.Count != 2 {
		t.Errorf("boundary Count = %v, want 2", d.Count)
	}
}

func TestSynFloodSignature(t *testing.T) {
	// A neptune-style flood: many S0 connections to one host/service must
	// produce high count and serror_rate ~ 1.
	tr := NewTracker()
	for i := 0; i < 50; i++ {
		c := Conn{
			Time: float64(i) * 0.01, SrcHost: 100 + i, DstHost: 7,
			SrcPort: 30000 + i, Service: "private", Flag: "S0",
		}
		mustObserve(t, tr, c)
	}
	d := mustObserve(t, tr, Conn{Time: 0.5, SrcHost: 999, DstHost: 7, SrcPort: 12345, Service: "private", Flag: "S0"})
	if d.Count < 50 {
		t.Errorf("flood Count = %v", d.Count)
	}
	if d.SerrorRate != 1 {
		t.Errorf("flood SerrorRate = %v, want 1", d.SerrorRate)
	}
	if d.DstHostSerrorRate != 1 {
		t.Errorf("flood DstHostSerrorRate = %v, want 1", d.DstHostSerrorRate)
	}
	if d.SameSrvRate != 1 {
		t.Errorf("flood SameSrvRate = %v", d.SameSrvRate)
	}
}

func TestPortScanSignature(t *testing.T) {
	// A portsweep: one source probing many services on one host with REJ.
	tr := NewTracker()
	services := []string{"http", "ftp", "telnet", "smtp", "pop_3", "imap4", "ssh", "finger"}
	for i := 0; i < 40; i++ {
		c := Conn{
			Time: float64(i) * 0.02, SrcHost: 5, DstHost: 7,
			SrcPort: 50000 + i, Service: services[i%len(services)], Flag: "REJ",
		}
		mustObserve(t, tr, c)
	}
	d := mustObserve(t, tr, Conn{Time: 0.9, SrcHost: 5, DstHost: 7, SrcPort: 50100, Service: "auth", Flag: "REJ"})
	if d.RerrorRate < 0.9 {
		t.Errorf("scan RerrorRate = %v, want ~1", d.RerrorRate)
	}
	if d.DiffSrvRate < 0.9 {
		t.Errorf("scan DiffSrvRate = %v, want ~1 (every service different)", d.DiffSrvRate)
	}
	if d.DstHostDiffSrvRate < 0.8 {
		t.Errorf("scan DstHostDiffSrvRate = %v, want high", d.DstHostDiffSrvRate)
	}
}

func TestHostWindowCap(t *testing.T) {
	tr := NewTracker()
	// 150 connections to one host, spread beyond the time window so only
	// the host window sees them all.
	for i := 0; i < 150; i++ {
		c := Conn{Time: float64(i), SrcHost: 1, DstHost: 2, SrcPort: 40000, Service: "http", Flag: "SF"}
		mustObserve(t, tr, c)
	}
	d := mustObserve(t, tr, Conn{Time: 151, SrcHost: 1, DstHost: 2, SrcPort: 40000, Service: "http", Flag: "SF"})
	if d.DstHostCount != HostWindow {
		t.Errorf("DstHostCount = %v, want capped at %v", d.DstHostCount, HostWindow)
	}
}

func TestHostWindowIsPerHost(t *testing.T) {
	tr := NewTracker()
	mustObserve(t, tr, Conn{Time: 0, SrcHost: 1, DstHost: 2, SrcPort: 1, Service: "http", Flag: "SF"})
	mustObserve(t, tr, Conn{Time: 1, SrcHost: 1, DstHost: 3, SrcPort: 1, Service: "smtp", Flag: "SF"})
	d := mustObserve(t, tr, Conn{Time: 2, SrcHost: 1, DstHost: 2, SrcPort: 1, Service: "http", Flag: "SF"})
	if d.DstHostCount != 2 {
		t.Errorf("DstHostCount = %v, want 2 (host 3 is separate)", d.DstHostCount)
	}
	if d.DstHostSameSrvRate != 1 {
		t.Errorf("DstHostSameSrvRate = %v", d.DstHostSameSrvRate)
	}
}

func TestOutOfOrderRejected(t *testing.T) {
	tr := NewTracker()
	mustObserve(t, tr, Conn{Time: 5, Service: "http", Flag: "SF"})
	if _, err := tr.Observe(Conn{Time: 4, Service: "http", Flag: "SF"}); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("out-of-order err = %v, want ErrOutOfOrder", err)
	}
	// Equal timestamps are fine.
	if _, err := tr.Observe(Conn{Time: 5, Service: "http", Flag: "SF"}); err != nil {
		t.Errorf("equal timestamp rejected: %v", err)
	}
}

func TestFlagClassifiers(t *testing.T) {
	for _, f := range []string{"S0", "S1", "S2", "S3"} {
		if !IsSynError(f) {
			t.Errorf("IsSynError(%q) = false", f)
		}
	}
	for _, f := range []string{"SF", "REJ", "RSTO", "SH", "OTH", ""} {
		if IsSynError(f) {
			t.Errorf("IsSynError(%q) = true", f)
		}
	}
	if !IsRejError("REJ") || IsRejError("SF") || IsRejError("S0") {
		t.Error("IsRejError misclassifies")
	}
}

func TestPropRatesAlwaysInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	tr := NewTracker()
	flags := []string{"SF", "S0", "REJ", "RSTO", "SH", "S1"}
	services := []string{"http", "smtp", "private", "ecr_i"}
	tm := 0.0
	for i := 0; i < 5000; i++ {
		tm += rng.Float64() * 0.05
		c := Conn{
			Time:    tm,
			SrcHost: rng.Intn(20),
			DstHost: rng.Intn(10),
			SrcPort: 1024 + rng.Intn(60000),
			Service: services[rng.Intn(len(services))],
			Flag:    flags[rng.Intn(len(flags))],
		}
		d, err := tr.Observe(c)
		if err != nil {
			t.Fatal(err)
		}
		rates := []float64{
			d.SerrorRate, d.SrvSerrorRate, d.RerrorRate, d.SrvRerrorRate,
			d.SameSrvRate, d.DiffSrvRate, d.SrvDiffHostRate,
			d.DstHostSameSrvRate, d.DstHostDiffSrvRate, d.DstHostSameSrcPortRate,
			d.DstHostSrvDiffHostRate, d.DstHostSerrorRate, d.DstHostSrvSerrorRate,
			d.DstHostRerrorRate, d.DstHostSrvRerrorRate,
		}
		for ri, r := range rates {
			if r < 0 || r > 1 || math.IsNaN(r) {
				t.Fatalf("iteration %d rate %d = %v out of range", i, ri, r)
			}
		}
		if d.Count < 1 || d.SrvCount < 1 || d.DstHostCount < 1 {
			t.Fatalf("iteration %d: counts must include current conn", i)
		}
		if d.SameSrvRate+d.DiffSrvRate > 1+1e-9 {
			t.Fatalf("iteration %d: same+diff srv rate = %v", i, d.SameSrvRate+d.DiffSrvRate)
		}
		if d.DstHostSrvCount > d.DstHostCount {
			t.Fatalf("iteration %d: srv count exceeds host count", i)
		}
	}
}

func TestPropCompactionPreservesCounts(t *testing.T) {
	// Drive enough volume through one tracker to trigger slice compaction
	// and verify window counts stay exact against a naive recomputation.
	rng := rand.New(rand.NewSource(21))
	tr := NewTracker()
	var all []Conn
	tm := 0.0
	for i := 0; i < 20000; i++ {
		tm += 0.001
		c := Conn{
			Time: tm, SrcHost: rng.Intn(5), DstHost: rng.Intn(3),
			SrcPort: rng.Intn(100), Service: "http", Flag: "SF",
		}
		all = append(all, c)
		d, err := tr.Observe(c)
		if err != nil {
			t.Fatal(err)
		}
		if i%5000 == 4999 {
			// Naive count for cross-checking.
			var naive int
			for _, p := range all {
				if p.Time >= c.Time-TimeWindow && p.DstHost == c.DstHost {
					naive++
				}
			}
			if int(d.Count) != naive {
				t.Fatalf("iteration %d: Count = %v, naive %d", i, d.Count, naive)
			}
		}
	}
}

func BenchmarkObserve(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	tr := NewTracker()
	conns := make([]Conn, 10000)
	tm := 0.0
	for i := range conns {
		tm += 0.002
		conns[i] = Conn{
			Time: tm, SrcHost: rng.Intn(50), DstHost: rng.Intn(20),
			SrcPort: rng.Intn(60000), Service: "http", Flag: "SF",
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := conns[i%len(conns)]
		c.Time = float64(i) * 0.002
		if _, err := tr.Observe(c); err != nil {
			b.Fatal(err)
		}
	}
}
