package kdd

import (
	"strings"
	"testing"
)

func TestCategoryOf(t *testing.T) {
	tests := []struct {
		label string
		want  Category
	}{
		{"normal", Normal},
		{"normal.", Normal},
		{"neptune", DoS},
		{"smurf.", DoS},
		{"back", DoS},
		{"teardrop", DoS},
		{"pod", DoS},
		{"land", DoS},
		{"portsweep", Probe},
		{"ipsweep", Probe},
		{"nmap", Probe},
		{"satan", Probe},
		{"guess_passwd", R2L},
		{"warezclient", R2L},
		{"ftp_write", R2L},
		{"imap", R2L},
		{"multihop", R2L},
		{"phf", R2L},
		{"spy", R2L},
		{"warezmaster", R2L},
		{"buffer_overflow", U2R},
		{"rootkit", U2R},
		{"loadmodule", U2R},
		{"perl", U2R},
		{"mystery_attack", Unknown},
		{"", Unknown},
	}
	for _, tt := range tests {
		if got := CategoryOf(tt.label); got != tt.want {
			t.Errorf("CategoryOf(%q) = %v, want %v", tt.label, got, tt.want)
		}
	}
}

func TestCategoryString(t *testing.T) {
	want := map[Category]string{
		Normal: "normal", DoS: "dos", Probe: "probe", R2L: "r2l", U2R: "u2r",
		Unknown: "unknown", Category(99): "unknown",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), s)
		}
	}
}

func TestCategories(t *testing.T) {
	cats := Categories()
	if len(cats) != 5 {
		t.Fatalf("Categories() has %d entries", len(cats))
	}
	if cats[0] != Normal || cats[1] != DoS {
		t.Error("Categories order wrong")
	}
}

func TestTrimLabel(t *testing.T) {
	if TrimLabel("smurf.") != "smurf" {
		t.Error("TrimLabel failed to strip dot")
	}
	if TrimLabel("smurf") != "smurf" {
		t.Error("TrimLabel altered clean label")
	}
	if TrimLabel("") != "" {
		t.Error("TrimLabel on empty string")
	}
}

func TestKnownLabelsCoverTaxonomy(t *testing.T) {
	// 1 normal + 10 dos + 6 probe + 16 r2l + 7 u2r, including the
	// corrected-test-set-only attacks.
	if len(labelCategory) != 40 {
		t.Errorf("taxonomy has %d labels, want 40", len(labelCategory))
	}
	for l := range labelCategory {
		if CategoryOf(l) == Unknown {
			t.Errorf("known label %q maps to Unknown", l)
		}
	}
}

func TestRecordCategoryAndIsAttack(t *testing.T) {
	r := Record{Label: "neptune"}
	if r.Category() != DoS || !r.IsAttack() {
		t.Error("neptune should be a DoS attack")
	}
	n := Record{Label: "normal"}
	if n.IsAttack() {
		t.Error("normal flagged as attack")
	}
	u := Record{Label: "weird"}
	if u.IsAttack() {
		t.Error("unknown label should not count as attack by default")
	}
}

func validRecord() Record {
	return Record{
		Duration: 1, Protocol: "tcp", Service: "http", Flag: "SF",
		SrcBytes: 200, DstBytes: 4000, Count: 4, SrvCount: 4,
		SameSrvRate: 1, DstHostCount: 20, DstHostSrvCount: 20,
		DstHostSameSrvRate: 1, Label: "normal",
	}
}

func TestNumericFeaturesOrderAndLength(t *testing.T) {
	r := validRecord()
	r.LoggedIn = true
	if len(NumericFeatureNames) != 38 {
		t.Fatalf("want 38 numeric features, names list %d", len(NumericFeatureNames))
	}
	feats := make([]float64, len(NumericFeatureNames))
	r.NumericFeaturesInto(feats)
	// Spot-check positions against the canonical ordering.
	if feats[0] != r.Duration {
		t.Error("feature 0 should be duration")
	}
	if feats[1] != r.SrcBytes || feats[2] != r.DstBytes {
		t.Error("features 1-2 should be src/dst bytes")
	}
	if feats[8] != 1 { // logged_in
		t.Error("feature 8 should be logged_in = 1")
	}
	if feats[37] != r.DstHostSrvRerrorRate {
		t.Error("feature 37 should be dst_host_srv_rerror_rate")
	}
}

func TestVocabulariesDistinct(t *testing.T) {
	seen := make(map[string]bool)
	for _, f := range Flags {
		if seen[f] {
			t.Errorf("duplicate flag %q", f)
		}
		seen[f] = true
	}
	seen = make(map[string]bool)
	for _, s := range CommonServices {
		if seen[s] {
			t.Errorf("duplicate service %q", s)
		}
		seen[s] = true
	}
	if !seen["other"] {
		t.Error("CommonServices must include the other bucket")
	}
	for _, f := range NumericFeatureNames {
		if strings.Contains(f, " ") {
			t.Errorf("feature name %q contains space", f)
		}
	}
}
