package engine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/sim"
)

// TestPDNTopLevelFoldsIntoSystem: the spec-level PDN field is sugar for
// System.PDN, so the two spellings of the same network must share a
// cache key — and an explicit section equal to the kind's defaults must
// collide with the bare kind selector.
func TestPDNTopLevelFoldsIntoSystem(t *testing.T) {
	for _, kind := range circuit.NetworkKinds() {
		top := Spec{App: "swim", PDN: &circuit.NetworkConfig{Kind: kind}}
		sys := sim.DefaultConfig()
		sys.PDN = &circuit.NetworkConfig{Kind: kind}
		inSystem := Spec{App: "swim", System: &sys}

		kTop, err := top.Key()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		kSys, err := inSystem.Key()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if kTop != kSys {
			t.Errorf("%s: spec-level PDN key differs from System.PDN key", kind)
		}

		explicit, err := circuit.NetworkConfig{Kind: kind}.Normalized()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		kExplicit, err := Spec{App: "swim", PDN: &explicit}.Key()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if kExplicit != kTop {
			t.Errorf("%s: explicit default parameters key differently from the bare kind", kind)
		}
	}
}

// TestPDNKeysDifferByKind: specs selecting different network kinds (and
// the legacy no-PDN default) must never share a key — a collision would
// replay one network's cached result for another.
func TestPDNKeysDifferByKind(t *testing.T) {
	seen := map[Key]string{}
	record := func(label string, s Spec) {
		t.Helper()
		k, err := s.Key()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("networks %q and %q share a key", prev, label)
		}
		seen[k] = label
	}
	record("legacy-default", Spec{App: "swim"})
	for _, kind := range circuit.NetworkKinds() {
		record(kind, Spec{App: "swim", PDN: &circuit.NetworkConfig{Kind: kind}})
	}
	// Parameter changes inside one kind's section must also move the key.
	p := circuit.Table1TwoDomain()
	p.Lpkg *= 2
	record("multidomain-lpkg2x", Spec{App: "swim",
		PDN: &circuit.NetworkConfig{Kind: circuit.NetworkMultiDomain, MultiDomain: &p}})
}

// TestPDNValidation: unknown kinds and out-of-range sensor domains are
// client errors from Validate (naming the registered kinds for the
// former), while Key stays total over them.
func TestPDNValidation(t *testing.T) {
	bad := Spec{App: "swim", PDN: &circuit.NetworkConfig{Kind: "mesh"}}
	err := bad.Validate()
	if err == nil {
		t.Fatal("unknown network kind validated")
	}
	if !strings.Contains(err.Error(), "mesh") || !strings.Contains(err.Error(), circuit.NetworkLumped) {
		t.Errorf("error %q does not name the bad kind and the registered kinds", err)
	}
	if _, err := bad.Key(); err != nil {
		t.Errorf("key not total over an unknown network kind: %v", err)
	}

	sys := sim.DefaultConfig()
	sys.PDN = &circuit.NetworkConfig{Kind: circuit.NetworkMultiDomain}
	sys.SensorDomain = 3 // two-domain default network: 0..2 valid
	if err := (Spec{App: "swim", System: &sys}).Validate(); err == nil {
		t.Error("out-of-range sensor domain validated")
	}
	sys.SensorDomain = 2
	if err := (Spec{App: "swim", System: &sys}).Validate(); err != nil {
		t.Errorf("in-range sensor domain rejected: %v", err)
	}
}

// TestPDNExecuteDomainTuning: the domain-tuning technique runs through
// the single Execute path on the default two-domain network, and its
// per-domain controllers see per-domain observations (the controller
// cycle accounting is non-trivial).
func TestPDNExecuteDomainTuning(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small simulation")
	}
	res, err := Execute(Spec{
		App:          "swim",
		Instructions: 5_000,
		Technique:    TechniqueDomainTuning,
		PDN:          &circuit.NetworkConfig{Kind: circuit.NetworkMultiDomain},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Fatal("ran zero cycles")
	}
	if res.Tech.ControllerCycles != res.Cycles {
		t.Errorf("controller observed %d of %d cycles", res.Tech.ControllerCycles, res.Cycles)
	}
}

// TestNetworkRegistryCompleteness asserts the network registry is wired
// the way the technique registry is: every registered kind corresponds
// to one parameter-section pointer field of circuit.NetworkConfig (all
// fields except Kind), and every RegisterNetwork call in the circuit
// package's init is reachable (the registered count matches the source).
func TestNetworkRegistryCompleteness(t *testing.T) {
	typ := reflect.TypeOf(circuit.NetworkConfig{})
	sections := 0
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Type.Kind() == reflect.Pointer {
			sections++
		}
	}
	kinds := circuit.NetworkKinds()
	if sections != len(kinds) {
		t.Errorf("circuit.NetworkConfig has %d parameter sections but %d registered kinds %v — register a descriptor for the new section",
			sections, len(kinds), kinds)
	}

	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "../circuit/netregistry.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	registrations := 0
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if ident, ok := call.Fun.(*ast.Ident); ok && ident.Name == "RegisterNetwork" {
			registrations++
		}
		return true
	})
	if registrations == 0 {
		t.Fatal("found no RegisterNetwork calls in internal/circuit/netregistry.go — has the file moved?")
	}
	if registrations != len(kinds) {
		t.Errorf("internal/circuit/netregistry.go registers %d networks but NetworkKinds() reports %d (%v)",
			registrations, len(kinds), kinds)
	}
}

// TestValidateAgreesWithExecute: over every way of describing a network
// — the legacy Supply and TwoStageSupply fields and the PDN section,
// lumped and two-domain — Spec.Validate rejects exactly the specs
// Execute rejects, with the same error.
func TestValidateAgreesWithExecute(t *testing.T) {
	if testing.Short() {
		t.Skip("runs small simulations")
	}
	legacy := func(edit func(c *sim.Config)) *sim.Config {
		c := sim.DefaultConfig()
		edit(&c)
		return &c
	}
	twoStage := func(edit func(p *circuit.TwoStageParams)) func(c *sim.Config) {
		return func(c *sim.Config) {
			p := circuit.Table1TwoStage()
			edit(&p)
			c.TwoStageSupply = &p
		}
	}
	lumpedPDN := func(edit func(p *circuit.Params), sensorDomain int) *sim.Config {
		c := sim.DefaultConfig()
		c.Supply = circuit.Params{}
		p := circuit.Table1()
		edit(&p)
		c.PDN = &circuit.NetworkConfig{Kind: circuit.NetworkLumped, Lumped: &p}
		c.SensorDomain = sensorDomain
		return &c
	}
	twoDomain := func(edit func(p *circuit.MultiDomainParams), sensorDomain int) *sim.Config {
		c := sim.DefaultConfig()
		p := circuit.Table1TwoDomain()
		edit(&p)
		c.PDN = &circuit.NetworkConfig{Kind: circuit.NetworkMultiDomain, MultiDomain: &p}
		c.SensorDomain = sensorDomain
		return &c
	}
	keep := func(*circuit.Params) {}
	keepMD := func(*circuit.MultiDomainParams) {}
	cases := []struct {
		name  string
		sys   *sim.Config
		valid bool
	}{
		{"lumped-legacy", legacy(func(*sim.Config) {}), true},
		{"lumped-legacy sensor domain 1", legacy(func(c *sim.Config) { c.SensorDomain = 1 }), true},
		{"lumped-legacy negative L", legacy(func(c *sim.Config) { c.Supply.L = -1 }), false},
		{"lumped-legacy sensor domain 3", legacy(func(c *sim.Config) { c.SensorDomain = 3 }), false},
		{"twostage-legacy", legacy(twoStage(func(*circuit.TwoStageParams) {})), true},
		{"twostage-legacy zero L1", legacy(twoStage(func(p *circuit.TwoStageParams) { p.L1 = 0 })), false},
		{"twostage-legacy sensor domain 2", legacy(func(c *sim.Config) {
			twoStage(func(*circuit.TwoStageParams) {})(c)
			c.SensorDomain = 2
		}), false},
		{"lumped-PDN", lumpedPDN(keep, 0), true},
		{"lumped-PDN negative L", lumpedPDN(func(p *circuit.Params) { p.L = -1 }, 0), false},
		{"lumped-PDN sensor domain 3", lumpedPDN(keep, 3), false},
		{"two-domain PDN", twoDomain(keepMD, 0), true},
		{"two-domain PDN rail sensor", twoDomain(keepMD, 2), true},
		{"two-domain PDN sensor domain 3", twoDomain(keepMD, 3), false},
		{"two-domain PDN zero package L", twoDomain(func(p *circuit.MultiDomainParams) { p.Lpkg = 0 }, 0), false},
		{"two-domain PDN unknown unit", twoDomain(func(p *circuit.MultiDomainParams) {
			p.Domains[1].PowerUnits = append([]string{"warp-core"}, p.Domains[1].PowerUnits...)
		}, 0), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := Spec{App: "swim", Instructions: 2_000, System: tc.sys}
			verr := spec.Validate()
			_, xerr := Execute(spec)
			if (verr == nil) != tc.valid {
				t.Errorf("Validate = %v, want valid=%v", verr, tc.valid)
			}
			if (verr == nil) != (xerr == nil) || (verr != nil && verr.Error() != xerr.Error()) {
				t.Errorf("Validate = %v, Execute = %v: they must agree", verr, xerr)
			}
		})
	}
}
