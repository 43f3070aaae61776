package main

import (
	"crypto/rand"
	"math/big"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"confaudit/internal/telemetry"
)

// snapshot is the process- and registry-wide state read on each side of
// a window; everything per-layer that is not a probe is a difference of
// two snapshots.
type snapshot struct {
	at   time.Time
	cpu  time.Duration // user+sys of this process
	mem  runtime.MemStats
	tele telemetry.MetricsSnapshot
}

func takeSnapshot() snapshot {
	s := snapshot{at: time.Now(), cpu: processCPU(), tele: telemetry.M.Snapshot()}
	runtime.ReadMemStats(&s.mem)
	return s
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is ru_maxrss, which Linux reports in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// delta is the change between two snapshots.
type delta struct{ a, b snapshot }

func (d delta) wall() time.Duration { return d.b.at.Sub(d.a.at) }
func (d delta) cpu() time.Duration  { return d.b.cpu - d.a.cpu }

func (d delta) counter(name string) float64 {
	return float64(d.b.tele.Counters[name] - d.a.tele.Counters[name])
}

func (d delta) histCount(name string) float64 {
	return float64(d.b.tele.Histograms[name].Count - d.a.tele.Histograms[name].Count)
}

// histSumMS is the total of the observations made between the snapshots.
func (d delta) histSumMS(name string) float64 {
	return d.b.tele.Histograms[name].SumMS - d.a.tele.Histograms[name].SumMS
}

func (d delta) mallocs() float64 { return float64(d.b.mem.Mallocs - d.a.mem.Mallocs) }
func (d delta) allocKB() float64 { return float64(d.b.mem.TotalAlloc-d.a.mem.TotalAlloc) / 1024 }

// calibration times two stdlib-only kernels. They describe how fast the
// box was when the run started and ended, for reading a run next to
// another; they are never used to rescale a metric (dividing by them
// made run-to-run spread worse, not better, on the reference box).
type calibration struct{ ModexpMS, MemcpyMS float64 }

func calibrate() calibration {
	p, _ := new(big.Int).SetString("FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245E485B576625E7EC6F44C42E9A63A3620FFFFFFFFFFFFFFFF", 16)
	base, e := big.NewInt(0x10001), new(big.Int).Sub(p, big.NewInt(12345))
	t0 := time.Now()
	for i := 0; i < 20; i++ {
		base.Exp(base, e, p)
	}
	c := calibration{ModexpMS: ms(time.Since(t0))}
	src, dst := make([]byte, 32<<20), make([]byte, 32<<20)
	rand.Read(src[:4096]) //nolint:errcheck // content is irrelevant
	t0 = time.Now()
	for i := 0; i < 4; i++ {
		copy(dst, src)
	}
	c.MemcpyMS = ms(time.Since(t0))
	return c
}

// dirBytes sums regular-file sizes under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// percentile returns the q-quantile (nearest rank on the sorted copy) of
// xs, or 0 when there are no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1)+0.5)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return total(xs) / float64(len(xs))
}

func total(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// iqr is the distance between the first and third quartile.
func iqr(xs []float64) float64 { return quantile(xs, 0.75) - quantile(xs, 0.25) }

// quantile is Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method) for q in {0.25, 0.5, 0.75}: position q·(n+1) on
// the sorted data, interpolated, clamped to the ends.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)+1)
	j := min(max(int(pos), 1), len(s)-1)
	frac := pos - float64(j)
	return s[j-1] + frac*(s[j]-s[j-1])
}
