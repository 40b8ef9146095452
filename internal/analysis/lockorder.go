package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
)

// lockorderMarker suppresses one lockorder diagnostic at a site.
const lockorderMarker = "lockorder-ok"

// lockLevelWord is the declaration directive naming a mutex field's
// rank in the package's lock order.
const lockLevelWord = "lock-level"

// lockorderScope limits the analyzer to the packages whose locks form
// a declared hierarchy: the scheduler core
// (Session.placeMu → shard.mu → Session.mu), the HTTP server's
// session RWMutex, and the simulator.  Fixture packages load outside
// the module path and are always in scope.
var lockorderScope = []string{
	"aladdin/internal/core",
	"aladdin/internal/server",
	"aladdin/internal/sim",
}

// Lockorder enforces the declared mutex partial order.  Mutex fields
// rank themselves with a declaration directive on the field:
//
//	placeMu sync.Mutex //aladdin:lock-level 10 serializes Place/Consolidate
//
// Lower levels are outer locks and must be acquired first.  The
// analyzer builds a per-function summary (locks acquired, locks
// released on behalf of callers, locks still held at exit), propagates
// the acquired set transitively over the intra-package call graph, and
// reports: an acquisition (direct or via a call) of a level ≤ any held
// level; a second acquisition of a mutex already held (double lock /
// self-deadlock, including via a callee); and a return reached while a
// lock is held with no deferred or later unlock — the classic missing
// unlock on an early error path.  Function literals are separate lock
// contexts (they may run on other goroutines), except deferred
// literals, which stay in the enclosing context.  Unlock-helper
// functions (a method that releases its receiver's lock on the
// caller's behalf, as in the testdata/lockorder fixture) are
// understood through the released-set summary, deferred or not.
var Lockorder = &Analyzer{
	Name: "lockorder",
	Doc: "flags mutex acquisitions violating the //aladdin:lock-level order, double locks, and locks held at return; " +
		"suppress deliberate exceptions with //aladdin:" + lockorderMarker,
	Run: runLockorder,
}

// loEventKind discriminates the per-function event stream.
type loEventKind int

const (
	loAcquire loEventKind = iota
	loRelease
	loCall
	loReturn
)

// loEvent is one lock operation, intra-package call, or return inside
// a lock context, in source order.
type loEvent struct {
	pos      token.Pos
	kind     loEventKind
	field    *types.Var // loAcquire/loRelease: the mutex field
	key      string     // syntactic receiver identity, e.g. "s.shards[k].mu"
	read     bool       // RLock/RUnlock
	deferred bool
	callee   *types.Func // loCall
}

// heldLock is one entry of the simulated held-lock stack.
type heldLock struct {
	field           *types.Var
	key             string
	pos             token.Pos // acquisition site
	read            bool
	deferredRelease bool
}

// lockSummary is one function's observable locking behaviour.
type lockSummary struct {
	// acquires maps each mutex field this function may lock — itself
	// or transitively through callees — to a representative site.
	acquires map[*types.Var]token.Pos
	// releases lists mutex fields unlocked without a matching acquire
	// in the function body: the function releases a caller's lock.
	releases map[*types.Var]bool
	// holds lists mutex fields still held when the function exits.
	holds map[*types.Var]bool
}

// lockorderState is the per-package analysis state.
type lockorderState struct {
	pass      *Pass
	graph     *callGraph
	levels    map[*types.Var]int    // declared lock levels
	owner     map[*types.Var]string // struct name owning each mutex field
	summaries map[*types.Func]*lockSummary
	contexts  map[*types.Func][][]loEvent
}

func runLockorder(pass *Pass) (any, error) {
	if !inScope(pass.Pkg.Path(), lockorderScope) {
		return nil, nil
	}
	st := &lockorderState{
		pass:      pass,
		graph:     buildCallGraph(pass),
		levels:    make(map[*types.Var]int),
		owner:     make(map[*types.Var]string),
		summaries: make(map[*types.Func]*lockSummary),
		contexts:  make(map[*types.Func][][]loEvent),
	}
	st.collectLevels()
	funcs := st.graph.sortedFuncs()
	for _, fn := range funcs {
		st.contexts[fn] = st.collectEvents(st.graph.decls[fn])
	}
	// Two summary rounds: the first sees no callee effects, the second
	// folds in helper releases (a deferred call to a method that unlocks
	// on its caller's behalf) so such functions do not read as holding
	// their lock at exit.
	for round := 0; round < 2; round++ {
		prev := st.summaries
		st.summaries = make(map[*types.Func]*lockSummary, len(funcs))
		for _, fn := range funcs {
			st.summaries[fn] = st.directSummary(st.contexts[fn], prev)
		}
	}
	st.propagateAcquires(funcs)
	for _, fn := range funcs {
		for _, events := range st.contexts[fn] {
			st.checkContext(events)
		}
	}
	return nil, nil
}

// collectLevels reads //aladdin:lock-level N directives off mutex
// struct fields and records every mutex field's owning struct name for
// diagnostics.
func (st *lockorderState) collectLevels() {
	for _, d := range fieldDirectives(st.pass) {
		if d.word != lockLevelWord {
			continue
		}
		for _, name := range d.field.Names {
			fv, ok := st.pass.TypesInfo.Defs[name].(*types.Var)
			if !ok || !isSyncMutex(fv.Type()) {
				continue // audit reports the stale directive
			}
			levelStr, _, _ := cutWord(d.args)
			level, err := strconv.Atoi(levelStr)
			if err != nil {
				st.pass.Reportf(d.comment.Pos(), "",
					"malformed //aladdin:%s directive: first argument must be an integer level", lockLevelWord)
				continue
			}
			st.levels[fv] = level
			st.pass.noteMarkerUse(d.comment)
		}
	}
	// Owning struct names, for rendering summary-derived diagnostics.
	for _, name := range st.pass.Pkg.Scope().Names() {
		tn, ok := st.pass.Pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		s, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < s.NumFields(); i++ {
			if f := s.Field(i); isSyncMutex(f.Type()) {
				st.owner[f] = name
			}
		}
	}
}

// cutWord splits s at the first space.
func cutWord(s string) (first, rest string, ok bool) {
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' || s[i] == '\t' {
			return s[:i], s[i+1:], true
		}
	}
	return s, "", false
}

// fieldDisplay renders a mutex field for diagnostics: Struct.field.
func (st *lockorderState) fieldDisplay(f *types.Var) string {
	if owner := st.owner[f]; owner != "" {
		return owner + "." + f.Name()
	}
	return f.Name()
}

// mutexFieldOp classifies expr.field.Lock/RLock/Unlock/RUnlock calls
// on any sync.Mutex/RWMutex struct field and returns the field, the
// syntactic identity of the lock expression, and whether it is an
// acquire and/or a reader op.
func mutexFieldOp(pass *Pass, call *ast.CallExpr) (field *types.Var, key string, acquire, read, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false, false, false
	}
	var acq, rd bool
	switch sel.Sel.Name {
	case "Lock":
		acq = true
	case "RLock":
		acq, rd = true, true
	case "Unlock":
	case "RUnlock":
		rd = true
	default:
		return nil, "", false, false, false
	}
	inner, isSel := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false, false, false
	}
	fv, isVar := pass.TypesInfo.Uses[inner.Sel].(*types.Var)
	if !isVar || !fv.IsField() || !isSyncMutex(fv.Type()) {
		return nil, "", false, false, false
	}
	return fv, exprString(pass, inner), acq, rd, true
}

// collectEvents walks one function declaration and returns its lock
// contexts: the body proper first, then one per non-deferred function
// literal at any depth, each an event stream in source order.
func (st *lockorderState) collectEvents(fd *ast.FuncDecl) [][]loEvent {
	var contexts [][]loEvent
	var collect func(body ast.Node)
	collect = func(body ast.Node) {
		idx := len(contexts)
		contexts = append(contexts, nil)
		var events []loEvent
		var walk func(n ast.Node, inDefer bool)
		walk = func(root ast.Node, inDefer bool) {
			ast.Inspect(root, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.DeferStmt:
					if fl, isLit := n.Call.Fun.(*ast.FuncLit); isLit {
						walk(fl.Body, true)
					} else {
						walk(n.Call, true)
					}
					return false
				case *ast.FuncLit:
					collect(n.Body) // separate execution context
					return false
				case *ast.ReturnStmt:
					// Returns inside deferred literals leave the
					// literal, not the enclosing function.
					if !inDefer {
						events = append(events, loEvent{pos: n.Pos(), kind: loReturn})
					}
				case *ast.CallExpr:
					if field, key, acquire, read, isOp := mutexFieldOp(st.pass, n); isOp {
						kind := loRelease
						if acquire {
							kind = loAcquire
						}
						events = append(events, loEvent{
							pos: n.Pos(), kind: kind, field: field, key: key,
							read: read, deferred: inDefer,
						})
						return false
					}
					if callee := staticCallee(st.pass, n); callee != nil {
						if _, declared := st.graph.decls[callee]; declared {
							events = append(events, loEvent{
								pos: n.Pos(), kind: loCall, callee: callee, deferred: inDefer,
							})
						}
					}
				}
				return true
			})
		}
		walk(body, false)
		sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })
		contexts[idx] = events
	}
	collect(fd.Body)
	return contexts
}

// directSummary computes a function's own locking behaviour before
// call-graph propagation.  Acquires union every context (a closure may
// run while the caller's locks are held); releases and holds describe
// the main body context only, which is what callers observe.  prev
// supplies the previous round's summaries so calls to unlock helpers
// count as releases; it is nil on the first round.
func (st *lockorderState) directSummary(contexts [][]loEvent, prev map[*types.Func]*lockSummary) *lockSummary {
	sum := &lockSummary{
		acquires: make(map[*types.Var]token.Pos),
		releases: make(map[*types.Var]bool),
		holds:    make(map[*types.Var]bool),
	}
	for ci, events := range contexts {
		var held []heldLock
		for _, ev := range events {
			switch ev.kind {
			case loAcquire:
				if _, seen := sum.acquires[ev.field]; !seen {
					sum.acquires[ev.field] = ev.pos
				}
				held = append(held, heldLock{field: ev.field, key: ev.key, pos: ev.pos, read: ev.read})
			case loRelease:
				if i := matchHeld(held, ev.field, ev.key); i >= 0 {
					if ev.deferred {
						held[i].deferredRelease = true
					} else {
						held = append(held[:i], held[i+1:]...)
					}
				} else if ci == 0 {
					sum.releases[ev.field] = true
				}
			case loCall:
				csum := prev[ev.callee]
				if csum == nil {
					continue
				}
				if ev.deferred {
					for i := range held {
						if csum.releases[held[i].field] {
							held[i].deferredRelease = true
						}
					}
					continue
				}
				for i := len(held) - 1; i >= 0; i-- {
					if csum.releases[held[i].field] && !held[i].deferredRelease {
						held = append(held[:i], held[i+1:]...)
					}
				}
			}
		}
		if ci == 0 {
			for _, h := range held {
				if !h.deferredRelease {
					sum.holds[h.field] = true
				}
			}
		}
	}
	return sum
}

// matchHeld finds the most recent held entry for a release: same
// syntactic key preferred, same field as fallback.
func matchHeld(held []heldLock, field *types.Var, key string) int {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].field == field && held[i].key == key {
			return i
		}
	}
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].field == field {
			return i
		}
	}
	return -1
}

// propagateAcquires closes the acquired-lock sets over the call graph:
// a function may acquire whatever its intra-package callees may
// acquire.
func (st *lockorderState) propagateAcquires(funcs []*types.Func) {
	for changed := true; changed; {
		changed = false
		for _, fn := range funcs {
			sum := st.summaries[fn]
			for _, callee := range st.graph.callees[fn] {
				csum := st.summaries[callee]
				if csum == nil {
					continue
				}
				for f := range csum.acquires {
					if _, seen := sum.acquires[f]; !seen {
						sum.acquires[f] = csum.acquires[f]
						changed = true
					}
				}
			}
		}
	}
}

// checkContext simulates one lock context and reports order
// violations, double locks, and locks held at return.
func (st *lockorderState) checkContext(events []loEvent) {
	var held []heldLock
	for _, ev := range events {
		switch ev.kind {
		case loAcquire:
			st.checkAcquire(held, ev)
			held = append(held, heldLock{field: ev.field, key: ev.key, pos: ev.pos, read: ev.read})
		case loRelease:
			if i := matchHeld(held, ev.field, ev.key); i >= 0 {
				if ev.deferred {
					held[i].deferredRelease = true
				} else {
					held = append(held[:i], held[i+1:]...)
				}
			}
		case loCall:
			sum := st.summaries[ev.callee]
			if sum == nil {
				continue
			}
			if ev.deferred {
				// A deferred helper call releases at return, like a
				// deferred unlock.
				for i := range held {
					if sum.releases[held[i].field] {
						held[i].deferredRelease = true
					}
				}
				continue
			}
			if len(held) > 0 {
				st.checkCall(held, ev, sum)
			}
			for i := len(held) - 1; i >= 0; i-- {
				if sum.releases[held[i].field] && !held[i].deferredRelease {
					held = append(held[:i], held[i+1:]...)
				}
			}
			for f := range sum.holds {
				held = append(held, heldLock{
					field: f,
					key:   "(" + funcDisplayName(ev.callee) + ")." + f.Name(),
					pos:   ev.pos,
				})
			}
		case loReturn:
			for _, h := range held {
				if !h.deferredRelease {
					st.pass.Reportf(ev.pos, lockorderMarker,
						"return while %s is still locked (acquired at %s): missing unlock on this path",
						h.key, st.pass.Fset.Position(h.pos))
				}
			}
		}
	}
	for _, h := range held {
		if !h.deferredRelease {
			st.pass.Reportf(h.pos, lockorderMarker,
				"%s is locked here but never unlocked before the function exits", h.key)
		}
	}
}

// checkAcquire reports a direct acquisition that double-locks or
// violates the declared order against the held set.
func (st *lockorderState) checkAcquire(held []heldLock, ev loEvent) {
	level, ranked := st.levels[ev.field]
	for _, h := range held {
		if h.field == ev.field && h.key == ev.key {
			if !h.read || !ev.read {
				st.pass.Reportf(ev.pos, lockorderMarker,
					"%s is already held (locked at %s): double lock would self-deadlock",
					ev.key, st.pass.Fset.Position(h.pos))
			}
			continue
		}
		hLevel, hRanked := st.levels[h.field]
		if !ranked || !hRanked {
			continue
		}
		switch {
		case hLevel > level:
			st.pass.Reportf(ev.pos, lockorderMarker,
				"acquiring %s (lock-level %d) while holding %s (lock-level %d): declared lock order requires lower levels first",
				ev.key, level, h.key, hLevel)
		case hLevel == level && h.field != ev.field:
			st.pass.Reportf(ev.pos, lockorderMarker,
				"acquiring %s while holding %s, both at lock-level %d: peer locks have no declared order",
				ev.key, h.key, level)
		case h.field == ev.field:
			// Another instance of the same field (e.g. two shards'
			// mutexes): no relative order exists between instances.
			st.pass.Reportf(ev.pos, lockorderMarker,
				"acquiring %s while still holding %s: two instances of %s held at once have no declared order",
				ev.key, h.key, st.fieldDisplay(ev.field))
		}
	}
}

// checkCall reports acquisitions a callee may perform (transitively)
// that conflict with the caller's held set.
func (st *lockorderState) checkCall(held []heldLock, ev loEvent, sum *lockSummary) {
	// Deterministic order over the callee's acquire set.
	fields := make([]*types.Var, 0, len(sum.acquires))
	for f := range sum.acquires {
		fields = append(fields, f)
	}
	sort.Slice(fields, func(i, j int) bool { return fields[i].Pos() < fields[j].Pos() })
	for _, f := range fields {
		level, ranked := st.levels[f]
		for _, h := range held {
			if h.field == f {
				st.pass.Reportf(ev.pos, lockorderMarker,
					"call to %s may lock %s, which is already held (locked at %s)",
					funcDisplayName(ev.callee), st.fieldDisplay(f), st.pass.Fset.Position(h.pos))
				continue
			}
			hLevel, hRanked := st.levels[h.field]
			if !ranked || !hRanked {
				continue
			}
			if hLevel >= level {
				st.pass.Reportf(ev.pos, lockorderMarker,
					"call to %s may acquire %s (lock-level %d) while holding %s (lock-level %d): declared lock order requires lower levels first",
					funcDisplayName(ev.callee), st.fieldDisplay(f), level, h.key, hLevel)
			}
		}
	}
}
