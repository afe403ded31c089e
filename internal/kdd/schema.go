// Package kdd defines the KDD-Cup-99 connection-record schema used by the
// intrusion-detection experiments: the 41 features, the attack-label
// taxonomy (normal / DoS / Probe / R2L / U2R), CSV parsing and writing in
// the original kddcup.data format, and the numeric vector encoding
// (numeric features plus one-hot categorical features) consumed by the
// SOM-family models.
//
// The schema intentionally matches the original dataset so that the real
// kddcup.data file can be used as a drop-in replacement for the synthetic
// traffic produced by internal/trafficgen.
package kdd

// Category is the coarse attack taxonomy of KDD-99.
type Category int

// The five KDD-99 record categories plus an explicit unknown.
const (
	// Normal marks legitimate traffic.
	Normal Category = iota + 1
	// DoS marks denial-of-service attacks (neptune, smurf, back, ...).
	DoS
	// Probe marks reconnaissance (portsweep, ipsweep, nmap, satan).
	Probe
	// R2L marks remote-to-local attacks (guess_passwd, warezclient, ...).
	R2L
	// U2R marks user-to-root escalations (buffer_overflow, rootkit, ...).
	U2R
	// Unknown marks labels outside the standard taxonomy.
	Unknown
)

// String returns the category name as used in reports.
func (c Category) String() string {
	switch c {
	case Normal:
		return "normal"
	case DoS:
		return "dos"
	case Probe:
		return "probe"
	case R2L:
		return "r2l"
	case U2R:
		return "u2r"
	default:
		return "unknown"
	}
}

// Categories lists the five standard categories in report order.
func Categories() []Category { return []Category{Normal, DoS, Probe, R2L, U2R} }

// labelCategory maps every KDD-99 label to its category: the 22
// training-set attacks plus the novel attacks that appear only in the
// original corrected test set (mailbomb, apache2, mscan, ...), which the
// unseen-attack experiments use.
var labelCategory = map[string]Category{
	"normal": Normal,

	"back": DoS, "land": DoS, "neptune": DoS, "pod": DoS, "smurf": DoS, "teardrop": DoS,
	// test-set-only DoS
	"mailbomb": DoS, "apache2": DoS, "processtable": DoS, "udpstorm": DoS,

	"ipsweep": Probe, "nmap": Probe, "portsweep": Probe, "satan": Probe,
	// test-set-only Probe
	"mscan": Probe, "saint": Probe,

	"ftp_write": R2L, "guess_passwd": R2L, "imap": R2L, "multihop": R2L,
	"phf": R2L, "spy": R2L, "warezclient": R2L, "warezmaster": R2L,
	// test-set-only R2L
	"snmpguess": R2L, "snmpgetattack": R2L, "httptunnel": R2L, "named": R2L,
	"sendmail": R2L, "xlock": R2L, "xsnoop": R2L, "worm": R2L,

	"buffer_overflow": U2R, "loadmodule": U2R, "perl": U2R, "rootkit": U2R,
	// test-set-only U2R
	"xterm": U2R, "ps": U2R, "sqlattack": U2R,
}

// CategoryOf returns the category for a KDD label (with or without the
// trailing '.' the original files carry). Labels outside the taxonomy map
// to Unknown.
func CategoryOf(label string) Category {
	label = TrimLabel(label)
	if c, ok := labelCategory[label]; ok {
		return c
	}
	return Unknown
}

// TrimLabel strips the trailing '.' that kddcup.data labels carry.
func TrimLabel(label string) string {
	if n := len(label); n > 0 && label[n-1] == '.' {
		return label[:n-1]
	}
	return label
}

// Protocols lists the protocol_type vocabulary of KDD-99.
var Protocols = []string{"tcp", "udp", "icmp"}

// Flags lists the connection-status flag vocabulary of KDD-99.
//
//	SF    normal establish + termination
//	S0    connection attempt seen, no reply (classic SYN-flood signature)
//	S1-S3 established, not torn down cleanly
//	REJ   connection attempt rejected
//	RSTO  reset by originator
//	RSTR  reset by responder
//	RSTOS0 originator sent SYN then RST
//	SH    SYN then FIN from originator only (stealth-scan signature)
//	OTH   no SYN seen, mid-stream traffic
var Flags = []string{"SF", "S0", "S1", "S2", "S3", "REJ", "RSTO", "RSTR", "RSTOS0", "SH", "OTH"}

// CommonServices lists the service vocabulary produced by the synthetic
// generator, a representative subset of the ~70 KDD-99 services. The
// encoder treats any service outside this list as "other", so real
// kddcup.data records remain encodable.
var CommonServices = []string{
	"http", "smtp", "ftp", "ftp_data", "telnet", "ssh", "domain_u", "dns",
	"pop_3", "imap4", "finger", "auth", "ecr_i", "eco_i", "private",
	"other",
}

// Record is one KDD-99 connection record: 41 features plus a label.
// Numeric fields use float64 even for integral features to match the
// vector encoding; boolean flags use bool and encode as 0/1.
type Record struct {
	// --- intrinsic (per-connection) features 1-9 ---

	// Duration is the connection length in seconds.
	Duration float64
	// Protocol is the transport protocol (tcp, udp, icmp).
	Protocol string
	// Service is the destination service name.
	Service string
	// Flag is the connection status summary (SF, S0, REJ, ...).
	Flag string
	// SrcBytes is bytes sent from source to destination.
	SrcBytes float64
	// DstBytes is bytes sent from destination to source.
	DstBytes float64
	// Land reports source host/port equal to destination host/port.
	Land bool
	// WrongFragment counts bad fragments.
	WrongFragment float64
	// Urgent counts urgent packets.
	Urgent float64

	// --- content features 10-22 ---

	// Hot counts "hot" indicators (entering system directories, etc.).
	Hot float64
	// NumFailedLogins counts failed login attempts.
	NumFailedLogins float64
	// LoggedIn reports a successful login.
	LoggedIn bool
	// NumCompromised counts compromised conditions.
	NumCompromised float64
	// RootShell reports whether a root shell was obtained.
	RootShell float64
	// SuAttempted reports "su root" attempts.
	SuAttempted float64
	// NumRoot counts root accesses.
	NumRoot float64
	// NumFileCreations counts file-creation operations.
	NumFileCreations float64
	// NumShells counts shell prompts.
	NumShells float64
	// NumAccessFiles counts operations on access-control files.
	NumAccessFiles float64
	// NumOutboundCmds counts outbound commands in an ftp session.
	NumOutboundCmds float64
	// IsHostLogin reports login to a "hot" (root/admin) account.
	IsHostLogin bool
	// IsGuestLogin reports a guest login.
	IsGuestLogin bool

	// --- time-based traffic features 23-31 (2-second window) ---

	// Count is connections to the same destination host in the window.
	Count float64
	// SrvCount is connections to the same service in the window.
	SrvCount float64
	// SerrorRate is the fraction of Count connections with SYN errors.
	SerrorRate float64
	// SrvSerrorRate is the fraction of SrvCount connections with SYN errors.
	SrvSerrorRate float64
	// RerrorRate is the fraction of Count connections with REJ errors.
	RerrorRate float64
	// SrvRerrorRate is the fraction of SrvCount connections with REJ errors.
	SrvRerrorRate float64
	// SameSrvRate is the fraction of Count connections to the same service.
	SameSrvRate float64
	// DiffSrvRate is the fraction of Count connections to different services.
	DiffSrvRate float64
	// SrvDiffHostRate is the fraction of SrvCount connections to different hosts.
	SrvDiffHostRate float64

	// --- host-based traffic features 32-41 (last-100-connections window) ---

	// DstHostCount is connections to the same destination host.
	DstHostCount float64
	// DstHostSrvCount is connections to the same host and service.
	DstHostSrvCount float64
	// DstHostSameSrvRate is the same-service fraction at the host.
	DstHostSameSrvRate float64
	// DstHostDiffSrvRate is the different-service fraction at the host.
	DstHostDiffSrvRate float64
	// DstHostSameSrcPortRate is the same-source-port fraction at the host.
	DstHostSameSrcPortRate float64
	// DstHostSrvDiffHostRate is the different-host fraction per service.
	DstHostSrvDiffHostRate float64
	// DstHostSerrorRate is the SYN-error fraction at the host.
	DstHostSerrorRate float64
	// DstHostSrvSerrorRate is the SYN-error fraction per service.
	DstHostSrvSerrorRate float64
	// DstHostRerrorRate is the REJ-error fraction at the host.
	DstHostRerrorRate float64
	// DstHostSrvRerrorRate is the REJ-error fraction per service.
	DstHostSrvRerrorRate float64

	// Label is the ground-truth label ("normal", "neptune", ...), without
	// the trailing dot.
	Label string
}

// Category returns the record's attack category.
func (r *Record) Category() Category { return CategoryOf(r.Label) }

// IsAttack reports whether the record is labeled as any attack.
func (r *Record) IsAttack() bool {
	c := r.Category()
	return c != Normal && c != Unknown
}

// NumericFeatureNames lists the 38 numeric/boolean features in encoding
// order (the 41 features minus the three categorical ones).
var NumericFeatureNames = []string{
	"duration", "src_bytes", "dst_bytes", "land", "wrong_fragment", "urgent",
	"hot", "num_failed_logins", "logged_in", "num_compromised", "root_shell",
	"su_attempted", "num_root", "num_file_creations", "num_shells",
	"num_access_files", "num_outbound_cmds", "is_host_login", "is_guest_login",
	"count", "srv_count", "serror_rate", "srv_serror_rate", "rerror_rate",
	"srv_rerror_rate", "same_srv_rate", "diff_srv_rate", "srv_diff_host_rate",
	"dst_host_count", "dst_host_srv_count", "dst_host_same_srv_rate",
	"dst_host_diff_srv_rate", "dst_host_same_src_port_rate",
	"dst_host_srv_diff_host_rate", "dst_host_serror_rate",
	"dst_host_srv_serror_rate", "dst_host_rerror_rate", "dst_host_srv_rerror_rate",
}

// NumericFeaturesInto writes the record's 38 numeric/boolean features into
// dst in the order of NumericFeatureNames, without allocating. It is the
// hot-path kernel under Encoder.EncodeInto: the caller must guarantee
// len(dst) >= len(NumericFeatureNames); it panics otherwise.
func (r *Record) NumericFeaturesInto(dst []float64) {
	_ = dst[len(NumericFeatureNames)-1]
	dst[0], dst[1], dst[2] = r.Duration, r.SrcBytes, r.DstBytes
	dst[3], dst[4], dst[5] = b2f(r.Land), r.WrongFragment, r.Urgent
	dst[6], dst[7], dst[8] = r.Hot, r.NumFailedLogins, b2f(r.LoggedIn)
	dst[9], dst[10], dst[11] = r.NumCompromised, r.RootShell, r.SuAttempted
	dst[12], dst[13], dst[14] = r.NumRoot, r.NumFileCreations, r.NumShells
	dst[15], dst[16] = r.NumAccessFiles, r.NumOutboundCmds
	dst[17], dst[18] = b2f(r.IsHostLogin), b2f(r.IsGuestLogin)
	dst[19], dst[20] = r.Count, r.SrvCount
	dst[21], dst[22] = r.SerrorRate, r.SrvSerrorRate
	dst[23], dst[24] = r.RerrorRate, r.SrvRerrorRate
	dst[25], dst[26] = r.SameSrvRate, r.DiffSrvRate
	dst[27] = r.SrvDiffHostRate
	dst[28], dst[29] = r.DstHostCount, r.DstHostSrvCount
	dst[30], dst[31] = r.DstHostSameSrvRate, r.DstHostDiffSrvRate
	dst[32], dst[33] = r.DstHostSameSrcPortRate, r.DstHostSrvDiffHostRate
	dst[34], dst[35] = r.DstHostSerrorRate, r.DstHostSrvSerrorRate
	dst[36], dst[37] = r.DstHostRerrorRate, r.DstHostSrvRerrorRate
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
