package exec

// objKind distinguishes the classes of shared objects in the engine's
// registry.
type objKind uint8

const (
	objVar objKind = iota + 1
	objMutex
	objCond
	objRWMutex
	objSemaphore
	objBarrier
	objChan
	objWaitGroup
)

// chanElem is one buffered channel element together with the trace ID of
// the send that produced it — the reads-from source of the receive that
// will pop it.
type chanElem struct {
	val int64
	src int
}

// object is the engine-side record for one shared object.
type object struct {
	id   VarID
	kind objKind
	name string
	key  VarKey // key of name, looked up once at creation

	// data variables (val doubles as a semaphore's live count and a
	// barrier's party count)
	val       int64
	lastWrite int // trace ID of the last write (init write included)

	// mutexes
	holder *Thread // nil when free

	// condition variables
	mutex   *Mutex
	waiters []*Thread // FIFO wait queue

	// reader-writer locks
	readers int
	writer  *Thread

	// channels (val doubles as the WaitGroup counter)
	cap     int        // buffer capacity (0 = rendezvous)
	buf     []chanElem // FIFO buffered elements
	closed  bool
	closeEv int // trace ID of the OpClose event, once closed

	// parked lists the threads parked on a pending whose enabledness
	// depends on this object: lock, reacquire, rwlock, semaphore, barrier,
	// send, receive and WaitGroup waits.
	parked waitList
}

// Var is a shared integer variable: the PUT-visible handle for one shared
// memory location. All access goes through Thread.Read/Write/etc. so every
// access is a scheduling point, exactly as under the paper's binary
// instrumentation.
type Var struct {
	obj *object
	eng *Engine
}

// Name returns the stable name of the variable (used in abstract events).
func (v *Var) Name() string { return v.obj.name }

// ID returns the variable's per-execution ID.
func (v *Var) ID() VarID { return v.obj.id }

// Mutex is a non-reentrant mutual-exclusion lock with pthread-like
// semantics: relocking by the holder blocks forever (a detectable
// deadlock), unlocking a mutex not held by the caller is a program error.
type Mutex struct {
	obj *object
	eng *Engine
}

// Name returns the stable name of the mutex.
func (m *Mutex) Name() string { return m.obj.name }

// ID returns the mutex's per-execution ID.
func (m *Mutex) ID() VarID { return m.obj.id }

// Cond is a condition variable bound to a Mutex, with pthread semantics:
// signals with no waiters are lost, waiters reacquire the mutex before
// returning from Wait, wakeup order is FIFO and deterministic.
type Cond struct {
	obj *object
	eng *Engine
}

// Name returns the stable name of the condition variable.
func (c *Cond) Name() string { return c.obj.name }

// ID returns the condition variable's per-execution ID.
func (c *Cond) ID() VarID { return c.obj.id }

// Mutex returns the mutex the condition variable is bound to.
func (c *Cond) Mutex() *Mutex { return &Mutex{obj: c.obj.mutex.obj, eng: c.eng} }

// RWMutex is a reader-writer lock with pthread_rwlock semantics: any
// number of concurrent readers, or one writer; writers wait for all
// readers to drain.
type RWMutex struct {
	obj *object
	eng *Engine
}

// Name returns the stable name of the lock.
func (m *RWMutex) Name() string { return m.obj.name }

// ID returns the lock's per-execution ID.
func (m *RWMutex) ID() VarID { return m.obj.id }

// Semaphore is a counting semaphore with sem_wait/sem_post semantics:
// waits block while the count is zero.
type Semaphore struct {
	obj *object
	eng *Engine
}

// Name returns the stable name of the semaphore.
func (s *Semaphore) Name() string { return s.obj.name }

// ID returns the semaphore's per-execution ID.
func (s *Semaphore) ID() VarID { return s.obj.id }

// Barrier is a pthread_barrier: Wait blocks until the configured number
// of parties have arrived, then releases them all.
type Barrier struct {
	obj *object
	eng *Engine
}

// Name returns the stable name of the barrier.
func (b *Barrier) Name() string { return b.obj.name }

// ID returns the barrier's per-execution ID.
func (b *Barrier) ID() VarID { return b.obj.id }

// Parties returns the number of threads the barrier synchronizes.
func (b *Barrier) Parties() int { return int(b.obj.val) }

// Chan is a typed integer channel with Go semantics: unbuffered channels
// rendezvous (a send is enabled only while a receiver is parked on the
// channel), buffered channels queue up to Cap values FIFO, receives on a
// closed drained channel yield (0, false), sends on a closed channel
// crash. Every operation is one scheduling point.
type Chan struct {
	obj *object
	eng *Engine
}

// Name returns the stable name of the channel.
func (c *Chan) Name() string { return c.obj.name }

// ID returns the channel's per-execution ID.
func (c *Chan) ID() VarID { return c.obj.id }

// Cap returns the buffer capacity (0 for an unbuffered channel).
func (c *Chan) Cap() int { return c.obj.cap }

// WaitGroup is a sync.WaitGroup analogue: Add moves the counter, Done is
// Add(-1), WgWait blocks until the counter is zero. A negative counter
// crashes, matching Go.
type WaitGroup struct {
	obj *object
	eng *Engine
}

// Name returns the stable name of the WaitGroup.
func (w *WaitGroup) Name() string { return w.obj.name }

// ID returns the WaitGroup's per-execution ID.
func (w *WaitGroup) ID() VarID { return w.obj.id }
