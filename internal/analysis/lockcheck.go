package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// lockMarker is the lockcheck analyzer's suppression marker.
const lockMarker = "lock-ok"

// Lockcheck flags exported methods that touch mutex-guarded struct
// fields without holding the lock.  The guarded set is inferred, not
// declared: a field of a struct that also holds a sync.Mutex/RWMutex
// is guarded when any method of that struct accesses it while the
// mutex is held.  Exported methods (the concurrent API surface — the
// HTTP Server's handlers, anything a caller can reach from another
// goroutine) must then hold the lock across every guarded-field
// access; unexported methods are assumed to be called with the lock
// held, matching this repo's convention.  Fields only ever touched
// outside critical sections (configured once at construction, e.g.
// the Server's request mux) stay unguarded and lock-free reads of
// them are fine.
//
// The lock-state tracking is flow-insensitive within a method: a
// mutex is considered held from the source position of recv.mu.Lock()
// (or RLock) to the matching explicit recv.mu.Unlock(); deferred
// unlocks keep it held to the end of the method.  Function literals
// are separate lock contexts: a closure handed to another goroutine
// (go statements, parallel.ForEach) is not protected by locks the
// spawning method holds, so its body is checked starting unlocked and
// must take the lock itself — except deferred literals, which run on
// the method's own goroutine at return and stay in the enclosing
// context.
//
// Two suppression forms exist.  A statement- or function-level
// //aladdin:lock-ok comment silences one diagnostic site (a
// deliberate racy read).  A //aladdin:lock-ok comment on a struct
// field's declaration exempts the field entirely: it is read-only
// after construction (routing tables, configuration), so accesses are
// never tracked and can never drag it into the guarded set — the
// antidote to over-broad inference when a coarse outer mutex is held
// across a whole method body.
var Lockcheck = &Analyzer{
	Name: "lockcheck",
	Doc: "flags exported methods reading or writing mutex-guarded fields without holding the lock; " +
		"suppress deliberate lock-free accesses with //aladdin:" + lockMarker,
	Run: runLockcheck,
}

// lockEvent is one mutex operation or field access inside a method
// body, ordered by source position.
type lockEvent struct {
	pos   int // file offset for ordering
	node  ast.Node
	kind  lockEventKind
	field string
	write bool
}

type lockEventKind int

const (
	evLock lockEventKind = iota
	evUnlock
	evDeferredUnlock
	evAccess
)

func runLockcheck(pass *Pass) (any, error) {
	structs := mutexStructs(pass)
	if len(structs) == 0 {
		return nil, nil
	}
	// methodsOf[named] lists the FuncDecls whose receiver is that
	// struct (by value or pointer).
	methodsOf := make(map[*types.Named][]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 || fd.Body == nil {
				continue
			}
			named := receiverNamed(pass, fd)
			if named == nil {
				continue
			}
			if _, tracked := structs[named]; tracked {
				methodsOf[named] = append(methodsOf[named], fd)
			}
		}
	}
	for named, info := range structs {
		checkStructMethods(pass, named, info, methodsOf[named])
	}
	return nil, nil
}

// mutexInfo describes one struct under analysis.
type mutexInfo struct {
	mutexFields map[string]bool // fields of type sync.Mutex / sync.RWMutex
	fields      map[string]bool // every other field
}

// mutexStructs finds the package's named struct types that embed or
// hold a sync.Mutex/RWMutex field.  Fields whose declaration carries
// an //aladdin:lock-ok comment are exempt: never tracked, never
// inferred guarded.  Alias names are skipped: an alias declares no
// fields, so keying its struct by the alias name would replace the
// struct's own exemptions with none.
func mutexStructs(pass *Pass) map[*types.Named]*mutexInfo {
	markers := exemptFields(pass)
	out := make(map[*types.Named]*mutexInfo)
	for _, name := range pass.Pkg.Scope().Names() {
		obj, ok := pass.Pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok || obj.IsAlias() {
			continue
		}
		named, ok := obj.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		exempt := markers[name]
		info := &mutexInfo{mutexFields: make(map[string]bool), fields: make(map[string]bool)}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			switch {
			case isSyncMutex(f.Type()):
				info.mutexFields[f.Name()] = true
			case exempt[f.Name()] != nil:
				// Declared read-only after construction; lock-free
				// accesses are the point.
			default:
				info.fields[f.Name()] = true
			}
		}
		if len(info.mutexFields) > 0 {
			out[named] = info
			// Field exemptions on a tracked struct are honoured; the
			// suppression audit counts them as live.
			for _, c := range exempt {
				pass.noteMarkerUse(c)
			}
		}
	}
	return out
}

// exemptFields collects, per struct type name, the fields whose
// declaration carries an //aladdin:lock-ok marker — either a doc
// comment above the field or a trailing comment on its line — mapped
// to the marker comment.
func exemptFields(pass *Pass) map[string]map[string]*ast.Comment {
	out := make(map[string]map[string]*ast.Comment)
	for _, d := range fieldDirectives(pass) {
		if d.word != lockMarker {
			continue
		}
		m := out[d.structName]
		if m == nil {
			m = make(map[string]*ast.Comment)
			out[d.structName] = m
		}
		for _, n := range d.field.Names {
			if m[n.Name] == nil {
				m[n.Name] = d.comment
			}
		}
	}
	return out
}

// isSyncMutex reports whether t is sync.Mutex or sync.RWMutex (or a
// pointer to one).
func isSyncMutex(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// receiverNamed resolves a method's receiver to its named type.
func receiverNamed(pass *Pass, fd *ast.FuncDecl) *types.Named {
	field := fd.Recv.List[0]
	tv, ok := pass.TypesInfo.Types[field.Type]
	if !ok {
		return nil
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// checkStructMethods infers the guarded field set across all methods
// (every lock context of every method), then reports unguarded
// accesses in exported methods, checking each lock context with its
// own lock state.
func checkStructMethods(pass *Pass, named *types.Named, info *mutexInfo, methods []*ast.FuncDecl) {
	type methodEvents struct {
		fd       *ast.FuncDecl
		contexts [][]lockEvent
	}
	var all []methodEvents
	guarded := make(map[string]bool)
	for _, fd := range methods {
		contexts := collectLockContexts(pass, fd, info)
		all = append(all, methodEvents{fd, contexts})
		for _, events := range contexts {
			held := false
			for _, ev := range events {
				switch ev.kind {
				case evLock, evDeferredUnlock:
					held = true
				case evUnlock:
					held = false
				case evAccess:
					if held {
						guarded[ev.field] = true
					}
				}
			}
		}
	}
	if len(guarded) == 0 {
		return
	}
	for _, me := range all {
		if !me.fd.Name.IsExported() {
			continue // internal helpers run with the lock held by convention
		}
		for _, events := range me.contexts {
			held := false
			for _, ev := range events {
				switch ev.kind {
				case evLock, evDeferredUnlock:
					held = true
				case evUnlock:
					held = false
				case evAccess:
					if !held && guarded[ev.field] {
						pass.Reportf(ev.node.Pos(), lockMarker,
							"%s.%s accesses mutex-guarded field %q without holding the lock",
							named.Obj().Name(), me.fd.Name.Name, ev.field)
					}
				}
			}
		}
	}
}

// collectLockContexts walks a method body and returns its mutex
// operations and receiver-field accesses in source order, one event
// stream per execution context: the method body proper first, then
// one per function literal at any nesting depth.  A closure may run
// on another goroutine, where locks held by the spawning method do
// not protect it, so each literal starts unlocked and tracks only its
// own lock calls.  Deferred literals are the exception: they run on
// the method's goroutine at return and stay in the enclosing context
// (their Unlocks counting as deferred).
func collectLockContexts(pass *Pass, fd *ast.FuncDecl, info *mutexInfo) [][]lockEvent {
	recvObj := receiverObject(pass, fd)
	if recvObj == nil {
		return nil
	}
	var contexts [][]lockEvent
	var collect func(body ast.Node)
	collect = func(body ast.Node) {
		idx := len(contexts)
		contexts = append(contexts, nil)
		var events []lockEvent
		var walk func(n ast.Node, inDefer bool)
		walk = func(root ast.Node, inDefer bool) {
			ast.Inspect(root, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.DeferStmt:
					if fl, ok := n.Call.Fun.(*ast.FuncLit); ok {
						walk(fl.Body, true)
					} else {
						walk(n.Call, true)
					}
					return false
				case *ast.FuncLit:
					collect(n.Body) // separate execution context
					return false
				case *ast.CallExpr:
					if kind, ok := mutexCall(pass, n, recvObj, info); ok {
						if kind == evUnlock && inDefer {
							kind = evDeferredUnlock
						}
						events = append(events, lockEvent{pos: int(n.Pos()), node: n, kind: kind})
						return false // don't re-visit the selector as an access
					}
				case *ast.SelectorExpr:
					if field, ok := recvFieldAccess(pass, n, recvObj, info); ok {
						events = append(events, lockEvent{pos: int(n.Pos()), node: n, kind: evAccess, field: field})
						return false
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

// receiverObject returns the types.Object of the method's receiver
// variable, or nil for anonymous receivers.
func receiverObject(pass *Pass, fd *ast.FuncDecl) types.Object {
	names := fd.Recv.List[0].Names
	if len(names) == 0 {
		return nil
	}
	return pass.TypesInfo.Defs[names[0]]
}

// mutexCall classifies recv.<mutexField>.Lock/Unlock/RLock/RUnlock
// calls.
func mutexCall(pass *Pass, call *ast.CallExpr, recv types.Object, info *mutexInfo) (lockEventKind, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return 0, false
	}
	inner, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return 0, false
	}
	ident, ok := inner.X.(*ast.Ident)
	if !ok || pass.TypesInfo.Uses[ident] != recv {
		return 0, false
	}
	if !info.mutexFields[inner.Sel.Name] {
		return 0, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		return evLock, true
	case "Unlock", "RUnlock":
		return evUnlock, true
	}
	return 0, false
}

// recvFieldAccess classifies recv.<field> selector expressions for
// non-mutex fields.
func recvFieldAccess(pass *Pass, sel *ast.SelectorExpr, recv types.Object, info *mutexInfo) (string, bool) {
	ident, ok := sel.X.(*ast.Ident)
	if !ok || pass.TypesInfo.Uses[ident] != recv {
		return "", false
	}
	if !info.fields[sel.Sel.Name] {
		return "", false
	}
	return sel.Sel.Name, true
}
