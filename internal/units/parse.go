package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ParsePower parses strings like "120W", "95.5 W", "216kW", "1.35 MW" into
// a Power. A bare number is watts. A value the unit overflows to infinity
// ("1e308 kW") is an error.
func ParsePower(s string) (Power, error) {
	value, unit, err := splitQuantity(s)
	if err != nil {
		return 0, fmt.Errorf("units: parsing power %q: %w", s, err)
	}
	var scale Power
	switch strings.ToLower(unit) {
	case "", "w":
		scale = Watt
	case "mw":
		// Case decides: "mW" milliwatt vs "MW" megawatt.
		if strings.Contains(unit, "M") {
			scale = Megawatt
		} else {
			scale = Milliwatt
		}
	case "kw":
		scale = Kilowatt
	default:
		return 0, fmt.Errorf("units: parsing power %q: unknown unit %q", s, unit)
	}
	p := Power(value) * scale
	if math.IsInf(float64(p), 0) {
		return 0, fmt.Errorf("units: parsing power %q: out of range", s)
	}
	return p, nil
}

// ParseFrequency parses strings like "2.1GHz", "2100 MHz", "1800000 kHz"
// into a Frequency. A bare number is hertz. A value the unit overflows to
// infinity is an error.
func ParseFrequency(s string) (Frequency, error) {
	value, unit, err := splitQuantity(s)
	if err != nil {
		return 0, fmt.Errorf("units: parsing frequency %q: %w", s, err)
	}
	var scale Frequency
	switch strings.ToLower(unit) {
	case "", "hz":
		scale = Hertz
	case "khz":
		scale = Kilohertz
	case "mhz":
		scale = Megahertz
	case "ghz":
		scale = Gigahertz
	default:
		return 0, fmt.Errorf("units: parsing frequency %q: unknown unit %q", s, unit)
	}
	f := Frequency(value) * scale
	if math.IsInf(float64(f), 0) {
		return 0, fmt.Errorf("units: parsing frequency %q: out of range", s)
	}
	return f, nil
}

// ParseEnergy parses strings like "15.3uJ", "9.8 kJ", "1.2MJ", "3 Wh".
// A bare number is joules. A value the unit overflows to infinity is an
// error.
func ParseEnergy(s string) (Energy, error) {
	value, unit, err := splitQuantity(s)
	if err != nil {
		return 0, fmt.Errorf("units: parsing energy %q: %w", s, err)
	}
	var scale Energy
	switch strings.ToLower(unit) {
	case "", "j":
		scale = Joule
	case "uj", "µj":
		scale = Microjoule
	case "kj":
		scale = Kilojoule
	case "mj":
		scale = Megajoule
	case "wh":
		scale = WattHour
	case "kwh":
		scale = KilowattHour
	default:
		return 0, fmt.Errorf("units: parsing energy %q: unknown unit %q", s, unit)
	}
	e := Energy(value) * scale
	if math.IsInf(float64(e), 0) {
		return 0, fmt.Errorf("units: parsing energy %q: out of range", s)
	}
	return e, nil
}

// splitQuantity separates "12.5 kW" into (12.5, "kW"); the space is
// optional and the unit may be empty.
func splitQuantity(s string) (float64, string, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, "", fmt.Errorf("empty quantity")
	}
	cut := len(t)
	for i, r := range t {
		if (r >= '0' && r <= '9') || r == '.' || r == '-' || r == '+' || r == 'e' || r == 'E' {
			continue
		}
		// 'e'/'E' only belong to the number when followed by a digit or
		// sign; a trailing "E" starts a unit. Handled by re-parsing below.
		cut = i
		break
	}
	num := strings.TrimSpace(t[:cut])
	unit := strings.TrimSpace(t[cut:])
	value, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, "", fmt.Errorf("bad number %q", num)
	}
	return value, unit, nil
}
