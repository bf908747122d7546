package predict

// Per-scheme configuration. Every configurable scheme declares a typed
// config struct here and a Defaults constructor on its registry entry; the
// evaluation layers carry a ConfigSet (scheme name -> partial override) and
// resolve it per scheme with Resolved: registry defaults first, then the
// caller's per-field overrides, then a normalization pass that fills the
// fields whose default depends on other fields (the counter threshold's
// half-range rule).
//
// Default rule: fields whose zero value is never valid (table sizes,
// history lengths, counter widths) are plain ints where 0 means "use the
// scheme default". Fields whose zero value is meaningful — a counter
// threshold of 0 is a real sweep point — are pointers where nil means
// "derive the default"; build them with Ptr.
//
// Range rule: every config type's Validate method is the one statement of
// the values its predictor accepts. ConfigSet.Validate runs it on the
// resolved configuration before any predictor is built, returning an
// OptionError; the constructors panic on the same check, since only a bug
// reaches them with a value Validate rejects.

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
)

// SchemeConfig is the marker interface every typed scheme configuration
// implements. Concrete types are plain structs of int and *uint8 fields
// (possibly via embedded structs) tagged with `opt:"key"` names for the
// CLI's -scheme-opt flag.
type SchemeConfig interface{ schemeConfig() }

// Ptr returns a pointer to v, for pointer-valued config fields:
// predict.CounterConfig{Bits: 2, Threshold: predict.Ptr[uint8](0)}.
func Ptr[T any](v T) *T { return &v }

// ErrBadOption is wrapped by every error that rejects a scheme
// configuration: a malformed -scheme-opt, an unknown scheme or key, an
// override of the wrong type, or a value outside its field's range.
var ErrBadOption = errors.New("predict: bad scheme option")

// OptionError rejects one configuration field: Key is its option key as
// -scheme-opt spells it, Value the rejected value and Want the accepted
// range. Scheme is the registry name, set once ConfigSet.Validate knows it.
type OptionError struct {
	Scheme string
	Key    string
	Value  int
	Want   string
}

func (e *OptionError) Error() string {
	key := e.Key
	if e.Scheme != "" {
		key = e.Scheme + "." + key
	}
	return fmt.Sprintf("%v %s=%d (want %s)", ErrBadOption, key, e.Value, e.Want)
}

// Unwrap makes errors.Is(err, ErrBadOption) hold.
func (e *OptionError) Unwrap() error { return ErrBadOption }

// inRange is the rule lo <= v <= hi for the field named key.
func inRange(key string, v, lo, hi int) error {
	if v < lo || v > hi {
		return &OptionError{Key: key, Value: v, Want: fmt.Sprintf("[%d,%d]", lo, hi)}
	}
	return nil
}

// checkGeometry is the buffer-shape rule: at least one entry, split into
// whole sets of assoc ways.
func checkGeometry(prefix string, entries, assoc int) error {
	if entries < 1 {
		return &OptionError{Key: prefix + "entries", Value: entries, Want: ">= 1"}
	}
	if assoc < 1 || entries%assoc != 0 {
		return &OptionError{Key: prefix + "assoc", Value: assoc,
			Want: fmt.Sprintf("a divisor of %sentries=%d", prefix, entries)}
	}
	return nil
}

// firstErr returns the first non-nil error, so a Validate method reports
// the first field that breaks its rule.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// BTBGeometry is the shared buffer shape: total entries and associativity
// (Assoc == Entries is the paper's fully-associative organization).
type BTBGeometry struct {
	Entries int `opt:"entries"`
	Assoc   int `opt:"assoc"`
}

// Validate checks the buffer shape.
func (g BTBGeometry) Validate() error { return checkGeometry("", g.Entries, g.Assoc) }

// CounterConfig is the shared n-bit saturating counter: predicted taken
// when counter >= Threshold. A nil Threshold resolves to half the counter
// range (1 << (Bits-1)) — the paper's T = 2 at its 2-bit width — during
// normalization, so the threshold default follows the width per-field
// instead of only when the whole configuration is untouched.
type CounterConfig struct {
	Bits      int    `opt:"bits"`
	Threshold *uint8 `opt:"threshold"`
}

// fill resolves the nil threshold to half the counter range.
func (c CounterConfig) fill() CounterConfig {
	if c.Threshold == nil && c.Bits > 0 {
		c.Threshold = Ptr(uint8(1) << (c.Bits - 1))
	}
	return c
}

// ThresholdValue returns the resolved threshold (half range when nil).
func (c CounterConfig) ThresholdValue() uint8 {
	return *c.fill().Threshold
}

// Validate checks the counter width and, when set, the threshold.
func (c CounterConfig) Validate() error {
	if err := inRange("bits", c.Bits, 1, 8); err != nil {
		return err
	}
	if c.Threshold == nil {
		return nil
	}
	return inRange("threshold", int(*c.Threshold), 0, 1<<c.Bits-1)
}

// SBTBConfig configures the Simple Branch Target Buffer scheme ("sbtb").
type SBTBConfig struct {
	BTBGeometry
}

func (SBTBConfig) schemeConfig() {}

// CBTBConfig configures the Counter-based BTB scheme ("cbtb").
type CBTBConfig struct {
	BTBGeometry
	CounterConfig
}

func (CBTBConfig) schemeConfig() {}

// Validate checks the buffer shape and the counter.
func (c CBTBConfig) Validate() error {
	return firstErr(c.BTBGeometry.Validate(), c.CounterConfig.Validate())
}

func (c CBTBConfig) normalize() SchemeConfig {
	c.CounterConfig = c.CounterConfig.fill()
	return c
}

// TwoLevelConfig configures the two-level BTB scheme ("btb2l"): per-level
// geometry plus the shared counter configuration of the L2 master copy.
type TwoLevelConfig struct {
	L1Entries int `opt:"l1-entries"`
	L1Assoc   int `opt:"l1-assoc"`
	L2Entries int `opt:"l2-entries"`
	L2Assoc   int `opt:"l2-assoc"`
	CounterConfig
}

func (TwoLevelConfig) schemeConfig() {}

// Validate checks both levels' shapes and the counter.
func (c TwoLevelConfig) Validate() error {
	return firstErr(
		checkGeometry("l1-", c.L1Entries, c.L1Assoc),
		checkGeometry("l2-", c.L2Entries, c.L2Assoc),
		c.CounterConfig.Validate())
}

func (c TwoLevelConfig) normalize() SchemeConfig {
	c.CounterConfig = c.CounterConfig.fill()
	return c
}

// HistoryConfig configures the history-indexed counter-table schemes:
// "gshare" (global history XORed into the table index; Sites unused) and
// "local" (per-site history table of 1<<Sites entries indexing the pattern
// table). History is the history length in bits, Table the log2 pattern
// table size, and the counter fields the per-entry saturating counter. The
// target side is a CBTB-style target cache of TargetEntries/TargetAssoc.
type HistoryConfig struct {
	History int `opt:"history"`
	Sites   int `opt:"sites"`
	Table   int `opt:"table"`
	CounterConfig
	TargetEntries int `opt:"target-entries"`
	TargetAssoc   int `opt:"target-assoc"`
}

func (HistoryConfig) schemeConfig() {}

// Validate checks the history and table sizes, the counter and the target
// cache. Sites may be 0: gshare leaves it unset, and for local it means one
// history register shared by every site.
func (c HistoryConfig) Validate() error {
	return firstErr(
		inRange("history", c.History, 1, 32),
		inRange("sites", c.Sites, 0, 30),
		inRange("table", c.Table, 1, 30),
		c.CounterConfig.Validate(),
		checkGeometry("target-", c.TargetEntries, c.TargetAssoc))
}

func (c HistoryConfig) normalize() SchemeConfig {
	c.CounterConfig = c.CounterConfig.fill()
	return c
}

// PerceptronConfig configures the perceptron scheme: one weight vector of
// History+1 signed WeightBits-wide weights per table row (bias included),
// dotted with the global history.
type PerceptronConfig struct {
	History       int `opt:"history"`
	Table         int `opt:"table"`
	WeightBits    int `opt:"weight-bits"`
	TargetEntries int `opt:"target-entries"`
	TargetAssoc   int `opt:"target-assoc"`
}

func (PerceptronConfig) schemeConfig() {}

// Validate checks the history, table and weight sizes and the target cache.
func (c PerceptronConfig) Validate() error {
	return firstErr(
		inRange("history", c.History, 1, 32),
		inRange("table", c.Table, 1, 30),
		inRange("weight-bits", c.WeightBits, 2, 16),
		checkGeometry("target-", c.TargetEntries, c.TargetAssoc))
}

// TAGEConfig configures the TAGE scheme: a 1<<Base bimodal base table and
// Tables tagged tables of 1<<Table entries each, with history lengths
// growing geometrically from MinHist to MaxHist. Bits is the prediction
// counter width (threshold fixed at half range), UBits the usefulness
// counter width, TagBits the partial tag width.
type TAGEConfig struct {
	Tables        int `opt:"tables"`
	Base          int `opt:"base"`
	Table         int `opt:"table"`
	TagBits       int `opt:"tag"`
	MinHist       int `opt:"min-hist"`
	MaxHist       int `opt:"max-hist"`
	Bits          int `opt:"bits"`
	UBits         int `opt:"ubits"`
	TargetEntries int `opt:"target-entries"`
	TargetAssoc   int `opt:"target-assoc"`
}

func (TAGEConfig) schemeConfig() {}

// Validate checks the table counts and sizes, the history range, the
// counter widths and the target cache.
func (c TAGEConfig) Validate() error {
	return firstErr(
		inRange("tables", c.Tables, 1, 16),
		inRange("base", c.Base, 1, 30),
		inRange("table", c.Table, 2, 30),
		inRange("tag", c.TagBits, 2, 16),
		inRange("min-hist", c.MinHist, 1, 64),
		inRange("max-hist", c.MaxHist, c.MinHist, 64),
		inRange("bits", c.Bits, 1, 8),
		inRange("ubits", c.UBits, 1, 8),
		checkGeometry("target-", c.TargetEntries, c.TargetAssoc))
}

// normalizer lets a config type fill fields whose default depends on other
// fields, after defaults and overrides have merged.
type normalizer interface{ normalize() SchemeConfig }

// ConfigSet maps scheme names to per-scheme configuration overrides. The
// zero value (or nil) resolves every scheme to its registry defaults — the
// paper's configuration for the paper's schemes.
type ConfigSet map[string]SchemeConfig

// Resolved returns the named scheme's effective configuration: the registry
// Defaults, overridden per-field by the set's entry (zero/nil fields keep
// the default), then normalized. Schemes without a Defaults constructor
// (the static baselines) resolve to the set's entry as-is, or nil.
func (cs ConfigSet) Resolved(name string) SchemeConfig {
	var def SchemeConfig
	if sc, ok := Lookup(name); ok && sc.Defaults != nil {
		def = sc.Defaults()
	}
	merged := Merge(def, cs[name])
	if n, ok := merged.(normalizer); ok {
		merged = n.normalize()
	}
	return merged
}

// Validate checks every scheme the set configures: the scheme must be
// registered and take options, its override must have the scheme's config
// type, and the resolved configuration must pass the type's Validate.
// Schemes the set leaves out resolve to their registry defaults. Errors
// wrap ErrBadOption and name the scheme; the first one in name order wins.
func (cs ConfigSet) Validate() error {
	names := make([]string, 0, len(cs))
	for n := range cs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		sc, ok := Lookup(n)
		switch {
		case !ok:
			return fmt.Errorf("%w: unknown scheme %q", ErrBadOption, n)
		case sc.Defaults == nil:
			return fmt.Errorf("%w: scheme %q takes no options", ErrBadOption, n)
		case cs[n] != nil && reflect.TypeOf(cs[n]) != reflect.TypeOf(sc.Defaults()):
			return fmt.Errorf("%w: scheme %q configured with %T, want %T",
				ErrBadOption, n, cs[n], sc.Defaults())
		}
		v, ok := cs.Resolved(n).(interface{ Validate() error })
		if !ok {
			continue
		}
		if err := v.Validate(); err != nil {
			var oe *OptionError
			if errors.As(err, &oe) {
				oe.Scheme = n
			}
			return err
		}
	}
	return nil
}

// MergeSets layers over on top of base, merging per-field where both sets
// configure the same scheme. Neither input is modified.
func MergeSets(base, over ConfigSet) ConfigSet {
	if len(over) == 0 {
		return base
	}
	out := make(ConfigSet, len(base)+len(over))
	for k, v := range base {
		out[k] = v
	}
	for k, v := range over {
		out[k] = Merge(out[k], v)
	}
	return out
}
