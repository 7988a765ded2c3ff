package profiler

import (
	"testing"

	"gocbs/internal/vm"
)

// BenchmarkCBSHooks times a call-dense loop (two calls per eight
// instructions) under CBS in real time. closed installs CBS but never
// fires its timer, so no yieldpoint is taken: the cost of having the
// profiler attached. open fires the timer once and never closes the
// window, so every method entry and exit runs the countdown and every
// third one takes a sample: the cost of the hooks themselves.
func BenchmarkCBSHooks(b *testing.B) {
	for _, tc := range []struct {
		name    string
		samples int
		timer   uint64
	}{
		{"closed", 16, 0},
		{"open", 1 << 30, 1_000},
	} {
		b.Run(tc.name, func(b *testing.B) {
			adv := buildAdversary(b, 4)
			c := NewCBS(Config{Stride: 3, SamplesPerTick: tc.samples, Seed: 1})
			m := vm.New(adv.prog)
			m.SetProfiler(c)
			m.SetTimer(tc.timer)
			arg := vm.IntV(1000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Call(adv.prog.Entry, arg); err != nil {
					b.Fatal(err)
				}
			}
			ns := float64(b.Elapsed().Nanoseconds())
			b.ReportMetric(ns/float64(m.Instrs), "ns/instr")
			if c.WindowEvents > 0 {
				b.ReportMetric(ns/float64(c.WindowEvents), "ns/event")
			}
		})
	}
}
