package bench

import "rff/internal/exec"

// Obj is a simulated heap object for the ConVul-style memory-safety
// programs: an allocation whose lifetime is tracked through a shared state
// variable, so that use-after-free, double-free and null-dereference bugs
// surface as crashes on exactly the racy interleavings that trigger them
// in the original CVEs (see DESIGN.md, "Substitutions").
//
// The state variable is ordinary shared memory: every lifetime check is a
// read event and every free is a write event, so the reads-from relation
// over object states is precisely what distinguishes buggy interleavings —
// the property RFF's feedback needs to steer.
type Obj struct {
	state *exec.Var // objAlive, objFreed, or objNull
	data  *exec.Var // payload; reading it models a dereference
	name  string
}

const (
	objNull  = 0
	objAlive = 1
	objFreed = 2
)

// NewObj allocates a live simulated object. Must be called from the thread
// that owns allocation (usually main, before spawning).
func NewObj(t *exec.Thread, name string) *Obj {
	return &Obj{
		state: t.NewVarAt(site_memsim_31, name+".state", objAlive),
		data:  t.NewVarAt(site_memsim_32, name+".data", 0),
		name:  name,
	}
}

// NewNullObj allocates an object reference that starts null (for
// initialize-then-use races).
func NewNullObj(t *exec.Thread, name string) *Obj {
	return &Obj{
		state: t.NewVarAt(site_memsim_41, name+".state", objNull),
		data:  t.NewVarAt(site_memsim_42, name+".data", 0),
		name:  name,
	}
}

// Alloc (re)initializes the object, modelling the allocation/installation
// step of initialize-then-publish patterns.
func (o *Obj) Alloc(t *exec.Thread) {
	t.WriteAt(site_memsim_50, o.state, objAlive)
}

// Use dereferences the object: crashes with a memory-safety failure when
// the object is freed or null at the moment of access.
func (o *Obj) Use(t *exec.Thread) int64 {
	switch t.ReadAt(site_memsim_56, o.state) {
	case objFreed:
		t.FailMemoryAt(site_memsim_58, "use-after-free of "+o.name)
	case objNull:
		t.FailMemoryAt(site_memsim_60, "null dereference of "+o.name)
	}
	return t.ReadAt(site_memsim_62, o.data)
}

// Store writes through the object, with the same lifetime checks as Use.
func (o *Obj) Store(t *exec.Thread, v int64) {
	switch t.ReadAt(site_memsim_67, o.state) {
	case objFreed:
		t.FailMemoryAt(site_memsim_69, "use-after-free (write) of "+o.name)
	case objNull:
		t.FailMemoryAt(site_memsim_71, "null dereference (write) of "+o.name)
	}
	t.WriteAt(site_memsim_73, o.data, v)
}

// Free releases the object: freeing twice is a double-free crash. The
// free itself is atomic (the allocator's metadata update), so a racing
// double free is always caught — the race the CVE programs plant lives in
// the *guards* around Free, not inside it.
func (o *Obj) Free(t *exec.Thread) {
	if prev := t.AtomicSwapAt(site_memsim_81, o.state, objFreed); prev == objFreed {
		t.FailMemoryAt(site_memsim_82, "double free of "+o.name)
	}
}

// FreeUnchecked releases without the double-free check (for CVEs whose
// crash is elsewhere).
func (o *Obj) FreeUnchecked(t *exec.Thread) {
	t.WriteAt(site_memsim_89, o.state, objFreed)
}

// Alive reads the lifetime state without crashing — the "check" half of
// the check-then-use races.
func (o *Obj) Alive(t *exec.Thread) bool {
	return t.ReadAt(site_memsim_95, o.state) == objAlive
}

// Refcount is a simulated reference counter guarding an object, as in the
// kernel get/put races (CVE-2016-7911 and friends). Dropping the count to
// zero frees the object; racing get/put pairs can resurrect or double-free
// it.
type Refcount struct {
	count *exec.Var
	obj   *Obj
}

// NewRefcount creates a counter with the given initial count guarding obj.
func NewRefcount(t *exec.Thread, name string, initial int64, obj *Obj) *Refcount {
	return &Refcount{count: t.NewVarAt(site_memsim_109, name+".refs", initial), obj: obj}
}

// Get increments the counter non-atomically (read then write) — the racy
// kernel fast path.
func (r *Refcount) Get(t *exec.Thread) {
	c := t.ReadAt(site_memsim_115, r.count)
	t.WriteAt(site_memsim_116, r.count, c+1)
}

// Put decrements non-atomically and frees the object when the count
// reaches zero.
func (r *Refcount) Put(t *exec.Thread) {
	c := t.ReadAt(site_memsim_122, r.count)
	t.WriteAt(site_memsim_123, r.count, c-1)
	if c-1 == 0 {
		r.obj.Free(t)
	}
}

// Count reads the current count.
func (r *Refcount) Count(t *exec.Thread) int64 { return t.ReadAt(site_memsim_130, r.count) }
