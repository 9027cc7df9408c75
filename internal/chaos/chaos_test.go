package chaos

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// arm arms a spec for the test and disarms on cleanup.
func arm(t *testing.T, spec string, seed int64) *Config {
	t.Helper()
	cfg, err := Parse(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	Arm(cfg)
	t.Cleanup(Disarm)
	return cfg
}

func TestDisarmedIsSilent(t *testing.T) {
	Disarm()
	if armed.Load() {
		t.Fatal("armed after Disarm")
	}
	for i := 0; i < 1000; i++ {
		if f := Maybe("any.point"); f != nil {
			t.Fatalf("disarmed Maybe fired %+v", f)
		}
	}
	// Every Fire method is nil-safe, so call sites need no nil checks
	// beyond the one they already write.
	var f *Fire
	f.PanicNow()
	f.Sleep(context.Background())
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
	if w := f.CorruptWord(42); w != 42 {
		t.Fatalf("nil CorruptWord changed word to %d", w)
	}
	if _, trunc := f.ShortWrite([]byte("abc")); trunc {
		t.Fatal("nil ShortWrite truncated")
	}
	f.Cancel(func() { t.Fatal("nil Cancel invoked") })
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"nokind",
		"p=bogus",
		"x=explode",
		"x=panic:times=abc",
		"x=panic:p=2",
		"x=panic:wat=1",
		"x=panic,x=delay",
	} {
		if _, err := Parse(spec, 1); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
	cfg, err := Parse(" a.b=panic:times=2 , c.d=delay:delay=5ms:after=1 ", 7)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.points; len(got) != 2 || got["a.b"] == nil || got["c.d"] == nil {
		t.Fatalf("points %v", got)
	}
}

func TestScheduleAfterTimes(t *testing.T) {
	arm(t, "pt=error:after=2:times=3", 1)
	var fires []int
	for i := 1; i <= 10; i++ {
		if f := Maybe("pt"); f != nil {
			fires = append(fires, i)
			if !errors.As(f.Err(), new(*InjectedError)) {
				t.Fatalf("hit %d: Err() = %v", i, f.Err())
			}
		}
	}
	// Skip the first two hits, then fire exactly three times.
	if len(fires) != 3 || fires[0] != 3 || fires[2] != 5 {
		t.Fatalf("fire pattern %v, want [3 4 5]", fires)
	}
	if f := Maybe("other"); f != nil {
		t.Fatal("unarmed point fired")
	}
}

func TestProbabilityDeterministic(t *testing.T) {
	run := func(seed int64) []int {
		arm(t, "pt=error:p=0.3:times=0", seed)
		var fires []int
		for i := 0; i < 200; i++ {
			if Maybe("pt") != nil {
				fires = append(fires, i)
			}
		}
		return fires
	}
	a, b := run(11), run(11)
	if len(a) == 0 || len(a) == 200 {
		t.Fatalf("p=0.3 fired %d/200 times", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("same seed diverged: %d vs %d fires", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at fire %d", i)
		}
	}
	c := run(12)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical fire patterns")
	}
}

func TestPanicKind(t *testing.T) {
	arm(t, "pt=panic", 1)
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "chaos: injected panic at pt") {
			t.Fatalf("recover() = %v", r)
		}
	}()
	Maybe("pt").PanicNow()
	t.Fatal("PanicNow did not panic")
}

func TestCorruptWordFlipsOneBit(t *testing.T) {
	arm(t, "pt=corrupt:times=0", 9)
	seen := map[uint64]bool{}
	for i := 0; i < 64; i++ {
		f := Maybe("pt")
		if f == nil {
			t.Fatal("corrupt point did not fire")
		}
		w := f.CorruptWord(0)
		if w == 0 || w&(w-1) != 0 {
			t.Fatalf("CorruptWord(0) = %#x, want exactly one bit", w)
		}
		seen[w] = true
	}
	if len(seen) < 8 {
		t.Fatalf("bit choice barely varies: %d distinct bits in 64 fires", len(seen))
	}
}

func TestShortWriteAndDelayAndCancel(t *testing.T) {
	arm(t, "sw=shortwrite,dl=delay:delay=1ms,cx=cancel:delay=0s,cxa=cancel:delay=1ms", 1)
	data, trunc := Maybe("sw").ShortWrite([]byte("0123456789"))
	if !trunc || len(data) != 5 {
		t.Fatalf("ShortWrite -> %q trunc=%v", data, trunc)
	}
	start := time.Now()
	Maybe("dl").Sleep(context.Background())
	if time.Since(start) < time.Millisecond {
		t.Fatal("delay fire did not sleep")
	}
	cancelled := false
	Maybe("cx").Cancel(func() { cancelled = true })
	if !cancelled {
		t.Fatal("zero-delay cancel fire did not invoke cancel synchronously")
	}
	async := make(chan struct{})
	Maybe("cxa").Cancel(func() { close(async) })
	select {
	case <-async:
	case <-time.After(5 * time.Second):
		t.Fatal("delayed cancel fire never invoked cancel")
	}
}

func TestSleepRespectsContext(t *testing.T) {
	arm(t, "dl=delay:delay=10s", 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	Maybe("dl").Sleep(ctx)
	if time.Since(start) > time.Second {
		t.Fatal("Sleep ignored cancelled context")
	}
}

func TestConcurrentFiresBounded(t *testing.T) {
	arm(t, "pt=error:times=5", 1)
	before := obs.Default().Counter("chaos.injected.pt").Load()
	var fires sync.WaitGroup
	var count, total = make(chan struct{}, 1000), 100
	for g := 0; g < total; g++ {
		fires.Add(1)
		go func() {
			defer fires.Done()
			for i := 0; i < 10; i++ {
				if Maybe("pt") != nil {
					count <- struct{}{}
				}
			}
		}()
	}
	fires.Wait()
	close(count)
	n := 0
	for range count {
		n++
	}
	if n != 5 {
		t.Fatalf("times=5 fired %d times under concurrency", n)
	}
	if got := obs.Default().Counter("chaos.injected.pt").Load() - before; got != 5 {
		t.Fatalf("chaos.injected.pt advanced by %d, want 5", got)
	}
}

func TestFlagConfigArmFromEnv(t *testing.T) {
	t.Setenv("CHAOS", "env.pt=error")
	t.Setenv("CHAOS_SEED", "33")
	c := &FlagConfig{}
	if err := c.Arm(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(Disarm)
	if !armed.Load() {
		t.Fatal("env spec did not arm")
	}
	if Maybe("env.pt") == nil {
		t.Fatal("env-armed point did not fire")
	}
	// Flag spec overrides env.
	c2 := &FlagConfig{Spec: "flag.pt=error", Seed: 1}
	if err := c2.Arm(); err != nil {
		t.Fatal(err)
	}
	if Maybe("env.pt") != nil {
		t.Fatal("env point still armed after flag override")
	}
	if Maybe("flag.pt") == nil {
		t.Fatal("flag point not armed")
	}
}

func TestFlagConfigNoSpecIsNoop(t *testing.T) {
	t.Setenv("CHAOS", "")
	Disarm()
	c := &FlagConfig{}
	if err := c.Arm(); err != nil {
		t.Fatal(err)
	}
	if armed.Load() {
		t.Fatal("armed with no spec")
	}
}

func BenchmarkMaybeDisarmed(b *testing.B) {
	Disarm()
	for i := 0; i < b.N; i++ {
		if Maybe("bench.point") != nil {
			b.Fatal("fired")
		}
	}
}
