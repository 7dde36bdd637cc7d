// Package units defines the physical quantities shared across the
// simulator: link rates in bits per second and data sizes in bytes, plus the
// arithmetic that connects them to simulated time (how long a transfer takes
// on a link, how many bytes fit in an interval).
package units

import (
	"fmt"
	"math"
	"time"

	"mltcp/internal/sim"
)

// Rate is a data rate in bits per second.
type Rate float64

// Common rates.
const (
	BitPerSecond Rate = 1
	Kbps              = 1e3 * BitPerSecond
	Mbps              = 1e6 * BitPerSecond
	Gbps              = 1e9 * BitPerSecond
)

// String formats the rate with a binary-network-engineering unit
// ("50Gbps", "100Mbps", "9.6Kbps").
func (r Rate) String() string {
	abs := math.Abs(float64(r))
	switch {
	case abs >= 1e9:
		return trimUnit(float64(r)/1e9, "Gbps")
	case abs >= 1e6:
		return trimUnit(float64(r)/1e6, "Mbps")
	case abs >= 1e3:
		return trimUnit(float64(r)/1e3, "Kbps")
	default:
		return trimUnit(float64(r), "bps")
	}
}

func trimUnit(v float64, unit string) string {
	if v == math.Trunc(v) {
		return fmt.Sprintf("%d%s", int64(v), unit)
	}
	return fmt.Sprintf("%.3g%s", v, unit)
}

// TransmissionTime returns how long it takes to serialize bytes onto a link
// of this rate. It panics for non-positive rates, which are always
// configuration errors.
//
// The panic formatting lives in a dedicated always-panicking helper so
// this function stays allocation-free on its live path: it sits on the
// per-packet dispatch chain of //mltcp:hot netsim code, and the fact layer
// exempts functions that panic on every path.
func (r Rate) TransmissionTime(bytes int64) sim.Time {
	if r <= 0 {
		panicNonPositiveRate(r)
	}
	return sim.Time(math.Round(float64(bytes) * 8 / float64(r) * float64(sim.Second)))
}

func panicNonPositiveRate(r Rate) {
	panic(fmt.Sprintf("units: transmission time at non-positive rate %v", r))
}

// BytesIn returns how many whole bytes this rate delivers in interval d.
func (r Rate) BytesIn(d sim.Time) int64 {
	if d <= 0 {
		return 0
	}
	return int64(float64(r) / 8 * d.Seconds())
}

// DurationMS returns d as a floating-point number of milliseconds, the
// unit CLI flags and report columns use for human-facing durations.
func DurationMS(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// ByteCount is a data size in bytes.
type ByteCount int64

// Common sizes (decimal, as used for network transfer volumes).
const (
	Byte ByteCount = 1
	KB             = 1000 * Byte
	MB             = 1000 * KB
	GB             = 1000 * MB
)

// String formats the size with a decimal unit ("3.75GB", "1500B").
func (b ByteCount) String() string {
	abs := b
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs >= GB:
		return trimUnit(float64(b)/float64(GB), "GB")
	case abs >= MB:
		return trimUnit(float64(b)/float64(MB), "MB")
	case abs >= KB:
		return trimUnit(float64(b)/float64(KB), "KB")
	default:
		return fmt.Sprintf("%dB", int64(b))
	}
}
