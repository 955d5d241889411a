package units

import (
	"math"
	"testing"
)

func TestParsePower(t *testing.T) {
	cases := []struct {
		in   string
		want float64 // watts
	}{
		{"120", 120},
		{"120W", 120},
		{"95.5 W", 95.5},
		{"216kW", 216000},
		{"216 kW", 216000},
		{"1.35 MW", 1.35e6},
		{"250mW", 0.25},
		{"-5 W", -5},
		{"1e3 W", 1000},
		{"1e308 W", 1e308},
	}
	for _, c := range cases {
		got, err := ParsePower(c.in)
		if err != nil {
			t.Errorf("ParsePower(%q): %v", c.in, err)
			continue
		}
		if math.Abs(got.Watts()-c.want) > 1e-9*math.Max(1, math.Abs(c.want)) {
			t.Errorf("ParsePower(%q) = %v, want %v", c.in, got.Watts(), c.want)
		}
	}
	// The last three overflow to ±Inf: the number itself, or the unit.
	for _, bad := range []string{"", "watts", "12 parsec", "1.2.3 W", "kW", "1e400 W", "1e308 kW", "-1e308 MW"} {
		if _, err := ParsePower(bad); err == nil {
			t.Errorf("ParsePower(%q) accepted", bad)
		}
	}
}

func TestParseFrequency(t *testing.T) {
	cases := []struct {
		in   string
		want float64 // hertz
	}{
		{"2100000000", 2.1e9},
		{"2.1GHz", 2.1e9},
		{"2100 MHz", 2.1e9},
		{"2100000 kHz", 2.1e9},
		{"60 Hz", 60},
	}
	for _, c := range cases {
		got, err := ParseFrequency(c.in)
		if err != nil {
			t.Errorf("ParseFrequency(%q): %v", c.in, err)
			continue
		}
		if math.Abs(got.Hz()-c.want) > 1e-3 {
			t.Errorf("ParseFrequency(%q) = %v, want %v", c.in, got.Hz(), c.want)
		}
	}
	for _, bad := range []string{"2.1 THz", "1e308 GHz", "-1e308 kHz"} {
		if _, err := ParseFrequency(bad); err == nil {
			t.Errorf("ParseFrequency(%q) accepted", bad)
		}
	}
}

func TestParseEnergy(t *testing.T) {
	cases := []struct {
		in   string
		want float64 // joules
	}{
		{"42", 42},
		{"42J", 42},
		{"15.3uJ", 15.3e-6},
		{"9.8 kJ", 9800},
		{"1.2MJ", 1.2e6},
		{"1 Wh", 3600},
		{"2 kWh", 7.2e6},
	}
	for _, c := range cases {
		got, err := ParseEnergy(c.in)
		if err != nil {
			t.Errorf("ParseEnergy(%q): %v", c.in, err)
			continue
		}
		if math.Abs(got.Joules()-c.want) > 1e-9*math.Max(1, c.want) {
			t.Errorf("ParseEnergy(%q) = %v, want %v", c.in, got.Joules(), c.want)
		}
	}
	for _, bad := range []string{"3 BTU", "1e308 kWh", "-1e308 MJ"} {
		if _, err := ParseEnergy(bad); err == nil {
			t.Errorf("ParseEnergy(%q) accepted", bad)
		}
	}
}

func TestParseRoundTripsString(t *testing.T) {
	// The String renderings of common quantities must parse back to the
	// same value (within format precision).
	for _, p := range []Power{120 * Watt, 216 * Kilowatt, 1.35 * Megawatt} {
		got, err := ParsePower(p.String())
		if err != nil {
			t.Errorf("ParsePower(%q): %v", p.String(), err)
			continue
		}
		if math.Abs(got.Watts()-p.Watts()) > 0.01*p.Watts() {
			t.Errorf("round trip %q = %v", p.String(), got)
		}
	}
	for _, f := range []Frequency{2.1 * Gigahertz, 100 * Megahertz} {
		got, err := ParseFrequency(f.String())
		if err != nil {
			t.Errorf("ParseFrequency(%q): %v", f.String(), err)
			continue
		}
		if math.Abs(got.Hz()-f.Hz()) > 0.01*f.Hz() {
			t.Errorf("round trip %q = %v", f.String(), got)
		}
	}
}

// FuzzParsePower fuzzes the power-string trust boundary (budgets, tenant
// quotas): for any input, ParsePower either errors or returns a finite
// value — it never panics and never hands out an infinity or NaN. The seed
// corpus lives in testdata/fuzz/FuzzParsePower.
func FuzzParsePower(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePower(s)
		if err != nil {
			return
		}
		if w := p.Watts(); math.IsInf(w, 0) || math.IsNaN(w) {
			t.Fatalf("ParsePower(%q) = %v, want an error for a non-finite value", s, w)
		}
	})
}
