package predict

// Reflection over the typed scheme configs: every field is either an int or
// a *uint8 tagged `opt:"key"`, possibly inside anonymous embedded structs
// (BTBGeometry, CounterConfig). That closed shape keeps the machinery here
// small and lets the CLIs expose any scheme's knobs as name.key=value
// strings without per-scheme plumbing.

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// optField is one addressable-by-key field of a config struct.
type optField struct {
	key   string
	index []int // reflect field index path, through embedded structs
	kind  reflect.Type
}

// optFields lists a config type's tagged fields in declaration order,
// recursing into anonymous embedded structs.
func optFields(t reflect.Type) []optField {
	var out []optField
	var walk func(t reflect.Type, prefix []int)
	walk = func(t reflect.Type, prefix []int) {
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			idx := append(append([]int(nil), prefix...), i)
			if f.Anonymous && f.Type.Kind() == reflect.Struct {
				walk(f.Type, idx)
				continue
			}
			tag := f.Tag.Get("opt")
			if tag == "" {
				continue
			}
			out = append(out, optField{key: tag, index: idx, kind: f.Type})
		}
	}
	walk(t, nil)
	return out
}

// OptionKeys returns the sorted option keys of a config value ("entries",
// "assoc", ...); nil configs have none.
func OptionKeys(c SchemeConfig) []string {
	if c == nil {
		return nil
	}
	var keys []string
	for _, f := range optFields(reflect.TypeOf(c)) {
		keys = append(keys, f.key)
	}
	sort.Strings(keys)
	return keys
}

// DescribeOptions renders a config's resolved key=value pairs in key order,
// for -ls listings and manifests. Nil pointer fields render as "auto".
func DescribeOptions(c SchemeConfig) string {
	if c == nil {
		return ""
	}
	v := reflect.ValueOf(c)
	fields := optFields(v.Type())
	sort.Slice(fields, func(i, j int) bool { return fields[i].key < fields[j].key })
	var parts []string
	for _, f := range fields {
		fv := v.FieldByIndex(f.index)
		switch fv.Kind() {
		case reflect.Ptr:
			if fv.IsNil() {
				parts = append(parts, f.key+"=auto")
			} else {
				parts = append(parts, fmt.Sprintf("%s=%d", f.key, fv.Elem().Uint()))
			}
		default:
			parts = append(parts, fmt.Sprintf("%s=%d", f.key, fv.Int()))
		}
	}
	return strings.Join(parts, " ")
}

// SetOption returns a copy of c with the field tagged key set to the parsed
// value. Unknown keys error with the valid key list; parse failures name
// the offending value. Errors wrap ErrBadOption.
func SetOption(c SchemeConfig, key, value string) (SchemeConfig, error) {
	if c == nil {
		return nil, fmt.Errorf("%w: scheme takes no options", ErrBadOption)
	}
	cp := reflect.New(reflect.TypeOf(c)).Elem()
	cp.Set(reflect.ValueOf(c))
	for _, f := range optFields(cp.Type()) {
		if f.key != key {
			continue
		}
		fv := cp.FieldByIndex(f.index)
		switch fv.Kind() {
		case reflect.Ptr: // *uint8
			n, err := strconv.ParseUint(value, 10, 8)
			if err != nil {
				return nil, fmt.Errorf("%w %s=%q (want an integer in [0,255])", ErrBadOption, key, value)
			}
			fv.Set(reflect.ValueOf(Ptr(uint8(n))))
		default: // int
			n, err := strconv.Atoi(value)
			if err != nil {
				return nil, fmt.Errorf("%w %s=%q (want an integer)", ErrBadOption, key, value)
			}
			fv.SetInt(int64(n))
		}
		return cp.Interface().(SchemeConfig), nil
	}
	return nil, fmt.Errorf("%w: unknown key %q (valid keys: %s)",
		ErrBadOption, key, strings.Join(OptionKeys(c), ", "))
}

// Merge layers override's set fields (non-zero ints, non-nil pointers) over
// base's. The two must be the same concrete type when both are non-nil;
// either side may be nil.
func Merge(base, override SchemeConfig) SchemeConfig {
	if base == nil {
		return override
	}
	if override == nil {
		return base
	}
	bt, ot := reflect.TypeOf(base), reflect.TypeOf(override)
	if bt != ot {
		panic(fmt.Sprintf("predict: cannot merge %s over %s", ot, bt))
	}
	out := reflect.New(bt).Elem()
	out.Set(reflect.ValueOf(base))
	ov := reflect.ValueOf(override)
	for _, f := range optFields(bt) {
		fv := ov.FieldByIndex(f.index)
		switch fv.Kind() {
		case reflect.Ptr:
			if !fv.IsNil() {
				out.FieldByIndex(f.index).Set(fv)
			}
		default:
			if fv.Int() != 0 {
				out.FieldByIndex(f.index).Set(fv)
			}
		}
	}
	return out.Interface().(SchemeConfig)
}

// ParseOptions parses repeated -scheme-opt arguments of the form
// name.key=value into a ConfigSet of partial overrides. The scheme must be
// registered and declare a Defaults configuration; unknown schemes and keys
// error with the valid alternatives spelled out. Errors wrap ErrBadOption;
// value ranges are left to ConfigSet.Validate.
func ParseOptions(opts []string) (ConfigSet, error) {
	if len(opts) == 0 {
		return nil, nil
	}
	cs := ConfigSet{}
	for _, o := range opts {
		name, rest, ok := strings.Cut(o, ".")
		if !ok || name == "" {
			return nil, fmt.Errorf("%w %q (want name.key=value)", ErrBadOption, o)
		}
		key, value, ok := strings.Cut(rest, "=")
		if !ok || key == "" {
			return nil, fmt.Errorf("%w %q (want name.key=value)", ErrBadOption, o)
		}
		sc, found := Lookup(name)
		if !found {
			return nil, fmt.Errorf("%w %q: unknown scheme %q (registered: %s)",
				ErrBadOption, o, name, strings.Join(SortedNames(), ", "))
		}
		if sc.Defaults == nil {
			return nil, fmt.Errorf("%w %q: scheme %q takes no options", ErrBadOption, o, name)
		}
		cur := cs[name]
		if cur == nil {
			// Overrides accumulate on the zero value of the scheme's config
			// type, not on its defaults: fields left unset stay zero here and
			// pick up the defaults at Resolved time.
			cur = reflect.New(reflect.TypeOf(sc.Defaults())).Elem().Interface().(SchemeConfig)
		}
		next, err := SetOption(cur, key, value)
		if err != nil {
			return nil, fmt.Errorf("%w (scheme %q)", err, name)
		}
		cs[name] = next
	}
	return cs, nil
}

// BTBConfigs is the one mapping from the flat BTB knobs — the CLIs'
// -entries/-assoc/-bits/-threshold shorthand and the ablation sweeps'
// points — to typed overrides: entries and assoc shape both sbtb and cbtb,
// bits and threshold configure cbtb's counter only. Zero ints and a nil
// threshold keep the scheme defaults (a nil threshold resolves to the
// counter midpoint), so BTBConfigs(0, 0, 0, nil) resolves like a nil set.
func BTBConfigs(entries, assoc, bits int, threshold *uint8) ConfigSet {
	geom := BTBGeometry{Entries: entries, Assoc: assoc}
	return ConfigSet{
		"sbtb": SBTBConfig{BTBGeometry: geom},
		"cbtb": CBTBConfig{BTBGeometry: geom, CounterConfig: CounterConfig{Bits: bits, Threshold: threshold}},
	}
}

// FlagConfigs builds a CLI's configuration set: the BTBConfigs shorthand
// (a negative threshold means the counter midpoint), overridden by the
// -scheme-opt name.key=value options, then validated. Every error wraps
// ErrBadOption.
func FlagConfigs(entries, assoc, bits, threshold int, opts []string) (ConfigSet, error) {
	if threshold > 255 {
		return nil, &OptionError{Scheme: "cbtb", Key: "threshold", Value: threshold, Want: "[0,255]"}
	}
	var th *uint8
	if threshold >= 0 {
		th = Ptr(uint8(threshold))
	}
	over, err := ParseOptions(opts)
	if err != nil {
		return nil, err
	}
	cs := MergeSets(BTBConfigs(entries, assoc, bits, th), over)
	if err := cs.Validate(); err != nil {
		return nil, err
	}
	return cs, nil
}
