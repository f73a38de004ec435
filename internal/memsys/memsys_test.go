package memsys

import (
	"testing"

	"sentinel/internal/simtime"
)

func TestPresetsValidate(t *testing.T) {
	for _, spec := range []Spec{OptaneHM(), GPUHM()} {
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	base := OptaneHM()
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"zero fast size", func(s *Spec) { s.Fast.Size = 0 }},
		{"negative slow size", func(s *Spec) { s.Slow.Size = -1 }},
		{"fast below one page", func(s *Spec) { s.Fast.Size = 4095 }},
		{"zero read bw", func(s *Spec) { s.Fast.ReadBW = 0 }},
		{"zero write bw", func(s *Spec) { s.Slow.WriteBW = 0 }},
		{"zero fast latency", func(s *Spec) { s.Fast.Latency = 0 }},
		{"negative slow latency", func(s *Spec) { s.Slow.Latency = -1 }},
		{"zero migration bw", func(s *Spec) { s.MigrationBW = 0 }},
		{"zero compute", func(s *Spec) { s.ComputeRate = 0 }},
		{"negative fault cost", func(s *Spec) { s.FaultCost = -1 }},
		{"negative demand-fault cost", func(s *Spec) { s.DemandFaultCost = -1 }},
		{"negative sync cost", func(s *Spec) { s.SyncCost = -1 }},
		{"overlap > 1", func(s *Spec) { s.OverlapFactor = 1.5 }},
		{"overlap < 0", func(s *Spec) { s.OverlapFactor = -0.1 }},
	}
	for _, c := range cases {
		s := base
		c.mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: validation passed, want error", c.name)
		}
	}
}

func TestTierHelpers(t *testing.T) {
	if Fast.Other() != Slow || Slow.Other() != Fast {
		t.Fatal("Other() wrong")
	}
	if Fast.String() != "fast" || Slow.String() != "slow" {
		t.Fatal("String() wrong")
	}
}

func TestWithFastSize(t *testing.T) {
	s := OptaneHM()
	orig := s.Fast.Size
	s2 := s.WithFastSize(42)
	if s2.Fast.Size != 42 {
		t.Fatal("WithFastSize did not apply")
	}
	if s.Fast.Size != orig {
		t.Fatal("WithFastSize mutated the receiver")
	}
}

func TestChannelSerializes(t *testing.T) {
	c := NewChannel(1e9) // 1 GB/s
	d1 := c.Submit(0, 1e9)
	if d1 != simtime.Time(simtime.Second) {
		t.Fatalf("first transfer done at %v, want 1s", d1)
	}
	// Second transfer queues behind the first.
	d2 := c.Submit(0, 1e9)
	if d2 != simtime.Time(2*simtime.Second) {
		t.Fatalf("second transfer done at %v, want 2s", d2)
	}
	// A transfer submitted after drain starts immediately.
	d3 := c.Submit(simtime.Time(3*simtime.Second), 1e9)
	if d3 != simtime.Time(4*simtime.Second) {
		t.Fatalf("post-drain transfer done at %v, want 4s", d3)
	}
	if c.MovedBytes() != 3e9 {
		t.Fatalf("moved %d, want 3e9", c.MovedBytes())
	}
}

func TestChannelUrgentPreempts(t *testing.T) {
	c := NewChannel(1e9)
	c.Submit(0, 10e9) // 10s of queued prefetch
	done := c.SubmitUrgent(0, 45e6)
	// Urgent completes after its own (derated) transfer time, not the
	// queue: 45 MB at 450 MB/s = 100 ms.
	want := simtime.Time(100 * simtime.Millisecond)
	if done != want {
		t.Fatalf("urgent done at %v, want %v", simtime.Duration(done), simtime.Duration(want))
	}
	// The backlog is pushed back by the same amount.
	if c.BusyUntil() <= simtime.Time(10*simtime.Second) {
		t.Fatal("backlog not pushed back by urgent transfer")
	}
}

func TestChannelDerate(t *testing.T) {
	c := NewChannel(1e9)
	c.Derate(0.5)
	if c.Bandwidth() != 0.5e9 {
		t.Fatalf("derated bandwidth %g", c.Bandwidth())
	}
	// The derate applies to future submissions.
	if done := c.Submit(0, 1e9); done != simtime.Time(2*simtime.Second) {
		t.Fatalf("derated transfer done at %v, want 2s", done)
	}
	// Out-of-range factors are ignored.
	c.Derate(0)
	c.Derate(-1)
	c.Derate(2)
	if c.Bandwidth() != 0.5e9 {
		t.Fatalf("bandwidth changed by invalid derate: %g", c.Bandwidth())
	}
}

func TestChannelIdleAndReset(t *testing.T) {
	c := NewChannel(1e9)
	if !c.Idle(0) {
		t.Fatal("fresh channel should be idle")
	}
	c.Submit(0, 1e9)
	if c.Idle(simtime.Time(simtime.Second) - 1) {
		t.Fatal("channel should be busy mid-transfer")
	}
	if !c.Idle(simtime.Time(simtime.Second)) {
		t.Fatal("channel should be idle at completion")
	}
	c.Reset()
	if c.MovedBytes() != 0 || !c.Idle(0) {
		t.Fatal("reset did not clear state")
	}
}

func TestA100Preset(t *testing.T) {
	a100 := GPUHM_A100()
	if err := a100.Validate(); err != nil {
		t.Fatal(err)
	}
	v100 := GPUHM()
	if a100.Fast.Size <= v100.Fast.Size || a100.MigrationBW <= v100.MigrationBW {
		t.Fatal("A100 preset not strictly bigger/faster than V100")
	}
}
