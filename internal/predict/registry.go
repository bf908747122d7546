package predict

import (
	"fmt"
	"sort"
	"sync"

	"branchcost/internal/isa"
	"branchcost/internal/profile"
)

// SchemeContext is everything a scheme constructor may need. Context-free
// schemes (pure hardware predictors, trivial statics) ignore Prog and
// Profile, which lets them replay bare trace files.
type SchemeContext struct {
	// Prog is the binary whose branch stream is scored: the original
	// binary, except that a Transformed scheme's New expects the
	// Forward-Semantic-transformed binary (see Scheme.Transformed).
	Prog *isa.Program
	// Profile is the aggregate profile of the original binary (nil when the
	// caller has none; schemes that require it set NeedsContext).
	Profile *profile.Profile
	// Configs carries per-scheme configuration overrides; nil (or an absent
	// entry) means every scheme's registry defaults — the paper's
	// configuration for the paper's schemes. Constructors read their own
	// entry with ctx.Config(name).
	Configs ConfigSet
}

// Config resolves the named scheme's effective configuration from the
// context's ConfigSet (defaults, overridden per-field, normalized).
func (ctx SchemeContext) Config(name string) SchemeConfig {
	return ctx.Configs.Resolved(name)
}

// Scheme is one registered prediction scheme: a name the evaluation
// pipeline, the cmd tools and the tables refer to, plus a constructor.
type Scheme struct {
	Name        string
	Description string

	// Transformed marks the Forward Semantic. Its New predicts over the
	// transformed binary's branch stream; that is the reference. Core
	// scores a Transformed scheme from the recorded original-binary trace
	// instead, through the direction table of the transform's layout
	// (fs.Result.Predictor), which gives the same outcome for every event.
	Transformed bool

	// NeedsContext schemes require ctx.Prog (and possibly ctx.Profile) and
	// therefore cannot replay a bare trace file without program context.
	NeedsContext bool

	// Defaults returns the scheme's default typed configuration (the paper's
	// for the paper's schemes). Nil for schemes that take no configuration
	// (the static baselines, the Forward Semantic).
	Defaults func() SchemeConfig

	// New constructs a fresh predictor instance.
	New func(ctx SchemeContext) Predictor
}

var registry = struct {
	sync.RWMutex
	byName map[string]Scheme
	order  []string
}{byName: map[string]Scheme{}}

// RegisterScheme adds a scheme to the registry, rejecting an empty name, a
// nil constructor, and — crucially — a name that is already registered: a
// duplicate must never silently replace the scheme every table and golden
// refers to by that name. The registry is left untouched on error.
func RegisterScheme(s Scheme) error {
	if s.Name == "" || s.New == nil {
		return fmt.Errorf("predict: RegisterScheme needs a name and a constructor")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.byName[s.Name]; dup {
		return fmt.Errorf("predict: scheme %q already registered", s.Name)
	}
	registry.byName[s.Name] = s
	registry.order = append(registry.order, s.Name)
	return nil
}

// Register is RegisterScheme for init-time registration, where every
// failure is a programming error: it panics instead of returning.
func Register(s Scheme) {
	if err := RegisterScheme(s); err != nil {
		panic(err)
	}
}

// Lookup returns the scheme registered under name.
func Lookup(name string) (Scheme, bool) {
	registry.RLock()
	defer registry.RUnlock()
	s, ok := registry.byName[name]
	return s, ok
}

// MustLookup is Lookup for names that are known to be registered.
func MustLookup(name string) Scheme {
	s, ok := Lookup(name)
	if !ok {
		panic(fmt.Sprintf("predict: unknown scheme %q (registered: %v)", name, Names()))
	}
	return s
}

// Names returns all registered scheme names in registration order.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	return append([]string(nil), registry.order...)
}

// SortedNames returns all registered scheme names sorted alphabetically
// (for help text and error messages).
func SortedNames() []string {
	names := Names()
	sort.Strings(names)
	return names
}

// The built-in software schemes and static baselines. The two hardware
// schemes register from internal/btb (the dependency points that way), so
// any program that links btb — core does — sees the full set.
func init() {
	Register(Scheme{
		Name:         "always-taken",
		Description:  "static: every branch taken, to its static target",
		NeedsContext: true,
		New: func(ctx SchemeContext) Predictor {
			return AlwaysTaken{Targets: ProgramTargets{Prog: ctx.Prog}}
		},
	})
	Register(Scheme{
		Name:        "always-not-taken",
		Description: "static: every branch not taken (the bare pipeline)",
		New: func(SchemeContext) Predictor {
			return AlwaysNotTaken{}
		},
	})
	Register(Scheme{
		Name:         "btfnt",
		Description:  "static: backward taken, forward not taken (J. E. Smith)",
		NeedsContext: true,
		New: func(ctx SchemeContext) Predictor {
			return BTFNT{Targets: ProgramTargets{Prog: ctx.Prog}}
		},
	})
	Register(Scheme{
		Name:         "opcode-bias",
		Description:  "static: per-opcode direction derived from aggregate profiling",
		NeedsContext: true,
		New: func(ctx SchemeContext) Predictor {
			return NewOpcodeBias(ctx.Profile, ProgramTargets{Prog: ctx.Prog})
		},
	})
	Register(Scheme{
		Name:         "fs",
		Description:  "Forward Semantic: compiler likely bits on the transformed binary",
		Transformed:  true,
		NeedsContext: true,
		New: func(ctx SchemeContext) Predictor {
			return LikelyBit{Targets: ProgramTargets{Prog: ctx.Prog}}
		},
	})
}
