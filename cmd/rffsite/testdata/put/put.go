// Package put is rffsite's test subject: one of each call shape the
// generator rewrites or leaves alone.
package put

import "rff/internal/exec"

// reader has a Read method but is not an *exec.Thread.
type reader struct{}

func (reader) Read(v *exec.Var) int64 { return 0 }

// Program exercises every call shape.
func Program(t *exec.Thread) {
	x := t.NewVar("x", 0)
	t.Write(x, 1)
	t.Write(x,
		2)
	t.
		Write(x, 3)
	ts := []*exec.Thread{t.Go("w", func(w *exec.Thread) { w.Yield() })}
	t.JoinAll(ts...)
	t.Assertf(t.Read(x) == 3, "x = %d, then %d", t.Read(x),
		t.Read(x))
	write := t.Write
	write(x, 4)
	defer t.Yield()
	reader{}.Read(x)
}
