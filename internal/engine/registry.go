package engine

import (
	"fmt"
	"sort"
	"sync"
)

// The registry maps engine names to registered engines. Registration happens
// in the implementation packages' init functions, so any program that links
// an engine package can resolve it by name; the listing order is sorted by
// name so selection is deterministic regardless of package-init order.
var (
	regMu    sync.RWMutex
	registry = map[string]Engine{}
	names    []string // sorted engine names
)

// Register adds an engine under its Name. It panics on an empty or duplicate
// name — both are programming errors in the registering package.
func Register(e Engine) {
	regMu.Lock()
	defer regMu.Unlock()
	name := e.Name()
	if name == "" {
		panic("engine: Register with empty name")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("engine: duplicate Register(%q)", name))
	}
	registry[name] = e
	names = append(names, name)
	sort.Strings(names)
}

// Get returns the engine registered under name.
func Get(name string) (Engine, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := registry[name]
	return e, ok
}

// MustGet is Get for names the caller knows are linked in; it panics when
// the engine is missing.
func MustGet(name string) Engine {
	e, ok := Get(name)
	if !ok {
		panic(fmt.Sprintf("engine: %q is not registered (is its package imported?)", name))
	}
	return e
}

// All returns every registered engine, sorted by name.
func All() []Engine {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Engine, 0, len(names))
	for _, n := range names {
		out = append(out, registry[n])
	}
	return out
}

// Reference returns the engine a result of the named engine is cross-checked
// against, and the engine a failed per-pair clip is retried on: the
// sequential Vatti sweep, or overlay when the engine under audit is vatti
// itself. Every engine serves every rule, so the rule argument does not
// change the pick; ok is false only when the reference engine is not linked
// in.
func Reference(against string, _ FillRule) (Engine, bool) {
	if against == "vatti" {
		return Get("overlay")
	}
	return Get("vatti")
}
