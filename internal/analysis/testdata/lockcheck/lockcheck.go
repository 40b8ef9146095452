// Package lockcheck is the golden fixture for the lockcheck analyzer.
// Counter's n field is inferred guarded (Add touches it under the
// lock), so exported methods must hold mu around every n access; name
// is never touched under the lock and stays unguarded.
package lockcheck

import "sync"

type Counter struct {
	mu   sync.Mutex
	n    int
	name string
}

func (c *Counter) Add(delta int) {
	c.mu.Lock()
	c.n += delta
	c.mu.Unlock()
}

func (c *Counter) Value() int {
	return c.n // want "accesses mutex-guarded field"
}

func (c *Counter) SafeValue() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Name reads a field configured once at construction; it is never
// accessed under the lock, so lock-free reads are legitimate.
func (c *Counter) Name() string {
	return c.name
}

// value is unexported: by convention it runs with the lock held.
func (c *Counter) value() int {
	return c.n
}

// Racy is a deliberate lock-free read for a metrics path.
//
//aladdin:lock-ok approximate metric; torn reads acceptable
func (c *Counter) Racy() int {
	return c.n
}

// Gauge exercises the two analyzer extensions: the field-level
// //aladdin:lock-ok marker exempts cfg from guarded inference even
// though Set touches it under the lock, and function literals are
// checked as separate lock contexts.
type Gauge struct {
	mu  sync.Mutex
	v   int
	cfg string //aladdin:lock-ok immutable after construction
}

func (g *Gauge) Set(v int) {
	g.mu.Lock()
	if g.cfg != "" {
		g.v = v
	}
	g.mu.Unlock()
}

// Config reads an exempt field lock-free: no diagnostic, even though
// cfg is accessed inside Set's critical section.
func (g *Gauge) Config() string {
	return g.cfg
}

// Fork hands a closure to a runner while holding the lock.  The
// closure may run on another goroutine the method's lock does not
// protect, so it does not inherit the held state and its v access is
// flagged.
func (g *Gauge) Fork(run func(func())) {
	g.mu.Lock()
	defer g.mu.Unlock()
	run(func() {
		_ = g.v // want "accesses mutex-guarded field"
	})
}

// ForkLocked's closure establishes its own critical section — each
// literal tracks its own lock calls.
func (g *Gauge) ForkLocked(run func(func())) {
	run(func() {
		g.mu.Lock()
		defer g.mu.Unlock()
		_ = g.v
	})
}

// Reset's deferred literal runs on the method's own goroutine at
// return, still inside the critical section — not a separate context.
func (g *Gauge) Reset() {
	g.mu.Lock()
	defer func() {
		_ = g.v
		g.mu.Unlock()
	}()
	g.v = 0
}

// Table's routes field is exempt and read lock-free by Routes.  The
// alias View names the same struct and carries no field markers of its
// own; it sorts after Table, so an analyzer that keyed exemptions by
// every scope name would let View's empty set replace Table's and flag
// Routes.
type Table struct {
	mu     sync.Mutex
	hits   int
	routes []string //aladdin:lock-ok immutable after construction
}

type View = Table

func (t *Table) Lookup(i int) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hits++
	return t.routes[i]
}

// Routes reads the exempt field without the lock: no diagnostic.
func (t *Table) Routes() []string {
	return t.routes
}
