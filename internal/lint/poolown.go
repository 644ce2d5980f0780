package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"partialdsm/internal/lint/analysis"
)

// PoolOwn enforces the pooled-buffer ownership discipline from the
// transport contract. A buffer obtained from mcs.GetPayload (or
// GetSharedPayload) is exclusively owned until it is handed off
// exactly once: returned to the pool (PutPayload), staged or sent
// (Outbox / Transport.Send / Enc.SetBuf adoption), stored into an
// owning structure, or returned to the caller. The analyzer checks,
// intraprocedurally, that the acquired buffer reaches such a hand-off
// on every control-flow path — a buffer that is conditionally released
// (the PR-6 drop-vs-inflight leak shape) or discarded outright is a
// finding.
//
// Separately, a function that receives a netsim.Message (a delivered
// frame) must not retain msg.Payload — or a subslice of it — past
// return by storing it into a field, map, or package variable: the
// transport contract hands the payload to the handler only for the
// duration of the call when the frame is pooled, so retention must
// copy (append into an owned buffer) or use the refcounted
// SharedPayload adoption. The netsim package itself is exempt (the
// transport owns in-flight messages by definition).
//
// The check is syntactic and intraprocedural by design: passing the
// buffer to any function call is a hand-off (the callee now owns it),
// and aliasing through Dec views is out of scope. Findings silence
// with //lint:allow poolown <reason>.
var PoolOwn = &analysis.Analyzer{
	Name: "poolown",
	Doc:  "pooled payload buffers must reach exactly one hand-off on every path; handlers must not retain Message.Payload",
	Run:  runPoolOwn,
}

// acquireFuncs are the mcs pool getters whose result carries exclusive
// ownership.
var acquireFuncs = map[string]bool{
	"GetPayload":       true,
	"GetSharedPayload": true,
}

func isAcquireCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	var fn *types.Func
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = info.Uses[fun.Sel].(*types.Func)
	}
	if fn == nil || !acquireFuncs[fn.Name()] || !pkgTailIs(fn.Pkg(), "mcs") {
		return "", false
	}
	return fn.Name(), true
}

func runPoolOwn(pass *analysis.Pass) (any, error) {
	allows := allowsOf(pass)
	allows.reportBad(pass, "poolown", false)
	if !inScope(pass.Pkg) {
		return nil, nil
	}
	for _, f := range pass.Files {
		if allows.inTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkAcquires(pass, allows, fd)
			if !pkgTailIs(pass.Pkg, "netsim") {
				checkRetention(pass, allows, fd)
			}
		}
	}
	return nil, nil
}

// checkAcquires finds the GetPayload-family calls in one function and
// verifies each acquired buffer is consumed on every path.
func checkAcquires(pass *analysis.Pass, allows *allowSet, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	// parents records each node's enclosing statement list context so
	// the path walk can continue into outer blocks.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, ok := isAcquireCall(info, call)
		if !ok {
			return true
		}
		if allows.allowed("poolown", call.Pos()) {
			return true
		}
		// Find the statement binding the call's result.
		stmt, blocks := enclosingStmt(fd.Body, call)
		if stmt == nil {
			return true
		}
		switch s := stmt.(type) {
		case *ast.AssignStmt:
			// v := GetPayload() / v, refs := GetSharedPayload(n): the
			// buffer is the first LHS. Any other shape (the call as an
			// operand of a larger RHS expression, e.g. append(GetPayload(),
			// ...) or enc.SetBuf(GetPayload())) consumes at birth.
			if len(s.Rhs) == 1 && unparen(s.Rhs[0]) == call && len(s.Lhs) >= 1 {
				id, ok := unparen(s.Lhs[0]).(*ast.Ident)
				if !ok {
					// d.buf = GetPayload(): stored straight into a field
					// or element — ownership handed to that structure.
					return true
				}
				if id.Name == "_" {
					pass.Reportf(call.Pos(),
						"mcs.%s result is discarded: the buffer must reach PutPayload, an Outbox/Send hand-off, or SharedPayload adoption", name)
					return true
				}
				var obj types.Object
				if s.Tok == token.DEFINE {
					obj = info.Defs[id]
				} else {
					obj = info.Uses[id]
				}
				if obj == nil {
					return true
				}
				if leak, pos := leaksOnSomePath(info, obj, stmt, blocks); leak {
					pass.Reportf(pos,
						"mcs.%s buffer %s may not reach PutPayload, an Outbox/Send hand-off, or SharedPayload adoption on every path (//lint:allow poolown <reason> if ownership is tracked elsewhere)",
						name, id.Name)
				}
			}
		case *ast.ExprStmt:
			if unparen(s.X) == call {
				pass.Reportf(call.Pos(),
					"mcs.%s result is discarded: the buffer must reach PutPayload, an Outbox/Send hand-off, or SharedPayload adoption", name)
			}
		}
		return true
	})
}

// enclosingStmt returns the statement that directly contains the
// expression, plus the chain of enclosing statement-list owners from
// innermost to the function body. The chain entries pair each block's
// statement list with the enclosing statement to resume after.
type blockCtx struct {
	list []ast.Stmt
	stmt ast.Stmt // the statement within list that contains the inner block
	loop bool     // list is a loop body: falling off repeats, leaving unconsumed leaks
}

func enclosingStmt(body *ast.BlockStmt, target ast.Node) (ast.Stmt, []blockCtx) {
	var (
		stack  []ast.Node
		found  ast.Stmt
		blocks []blockCtx
	)
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if n == target {
			// Walk outward: the innermost Stmt is the carrier; each
			// []ast.Stmt owner above it becomes a block context.
			for i := len(stack) - 1; i >= 0; i-- {
				if s, ok := stack[i].(ast.Stmt); ok {
					if _, isBlock := s.(*ast.BlockStmt); !isBlock && found == nil {
						found = s
					}
				}
			}
			carrier := found
			for i := len(stack) - 1; i >= 0; i-- {
				bs, ok := stack[i].(*ast.BlockStmt)
				if !ok {
					continue
				}
				// The statement of this block that contains the carrier.
				var within ast.Stmt
				for _, s := range bs.List {
					if s.Pos() <= carrier.Pos() && carrier.End() <= s.End() {
						within = s
						break
					}
				}
				if within == nil {
					continue
				}
				loop := false
				if i > 0 {
					switch stack[i-1].(type) {
					case *ast.ForStmt, *ast.RangeStmt:
						loop = true
					}
				}
				blocks = append(blocks, blockCtx{list: bs.List, stmt: within, loop: loop})
				carrier = containingStmt(stack, i)
				if carrier == nil {
					break
				}
			}
			return false
		}
		return true
	})
	return found, blocks
}

// containingStmt finds the statement node enclosing stack[i] (the
// block) to resume the outer walk from.
func containingStmt(stack []ast.Node, i int) ast.Stmt {
	for j := i - 1; j >= 0; j-- {
		if s, ok := stack[j].(ast.Stmt); ok {
			if _, isBlock := s.(*ast.BlockStmt); !isBlock {
				return s
			}
		}
	}
	return nil
}

// leaksOnSomePath walks forward from the acquiring statement: through
// the rest of its block, then outward block by block. It reports a
// leak position when some path exits the function (or falls off a
// loop iteration) without a consuming use of obj.
func leaksOnSomePath(info *types.Info, obj types.Object, acquire ast.Stmt, blocks []blockCtx) (bool, token.Pos) {
	if len(blocks) == 0 {
		return false, token.NoPos
	}
	pos := acquire.Pos()
	for bi, ctx := range blocks {
		// Remaining statements of this block, after the statement
		// containing the acquire (for the innermost block, after the
		// acquire itself).
		start := -1
		for i, s := range ctx.list {
			if s == ctx.stmt {
				start = i
				break
			}
		}
		if start < 0 {
			return false, token.NoPos
		}
		rest := ctx.list[start+1:]
		if bi == 0 {
			// The acquiring statement itself may consume (e.g.
			// v := append(GetPayload(), ...) stored via later use is
			// handled by tracking; direct `enc.SetBuf(GetPayload())`
			// never reaches here).
			if stmtConsumes(info, obj, ctx.stmt) {
				return false, token.NoPos
			}
		} else {
			// In outer blocks the statement containing the inner block
			// has already been traversed; its own header can't consume
			// retroactively.
			_ = bi
		}
		falls, exits := seqStatus(info, obj, rest)
		if exits {
			return true, pos
		}
		if !falls {
			return false, token.NoPos
		}
		if ctx.loop {
			// Falling off a loop body leaves this iteration's buffer
			// unconsumed.
			return true, pos
		}
	}
	// Fell off the function body.
	return true, pos
}

// seqStatus analyzes a statement sequence entered with the buffer
// unconsumed. falls: some path reaches the end still unconsumed.
// exits: some path returns from the function (not via panic) still
// unconsumed.
func seqStatus(info *types.Info, obj types.Object, stmts []ast.Stmt) (falls, exits bool) {
	falls = true
	for _, s := range stmts {
		if !falls {
			return false, exits
		}
		f, e := stmtStatus(info, obj, s)
		exits = exits || e
		falls = f
	}
	return falls, exits
}

// stmtStatus analyzes one statement entered unconsumed, returning
// whether some path falls past it unconsumed and whether some path
// exits the function from within it unconsumed.
func stmtStatus(info *types.Info, obj types.Object, s ast.Stmt) (falls, exits bool) {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		if stmtConsumes(info, obj, s) {
			return false, false
		}
		return false, true
	case *ast.ExprStmt:
		if isTerminalCall(info, s.X) {
			// panic/Fatal paths don't count as leaks: the process (or
			// test) is going down, pooled memory is moot.
			return false, false
		}
		return !stmtConsumes(info, obj, s), false
	case *ast.DeferStmt, *ast.GoStmt:
		// A defer or goroutine that consumes covers every later path.
		return !stmtConsumes(info, obj, s), false
	case *ast.IfStmt:
		if exprConsumes(info, obj, s.Cond) || (s.Init != nil && stmtConsumes(info, obj, s.Init)) {
			return false, false
		}
		bf, be := seqStatus(info, obj, s.Body.List)
		ef, ee := true, false
		switch els := s.Else.(type) {
		case *ast.BlockStmt:
			ef, ee = seqStatus(info, obj, els.List)
		case *ast.IfStmt:
			ef, ee = stmtStatus(info, obj, els)
		case nil:
			// no else: the false branch falls through unconsumed
		}
		return bf || ef, be || ee
	case *ast.BlockStmt:
		return seqStatus(info, obj, s.List)
	case *ast.ForStmt:
		if s.Cond != nil && exprConsumes(info, obj, s.Cond) {
			return false, false
		}
		bf, be := seqStatus(info, obj, s.Body.List)
		_ = bf
		// Conservative: a loop may run zero times (or exit via
		// break), so consumption inside it does not count as
		// guaranteed — except the unconditional `for { ... }` with no
		// break, which never falls through.
		if s.Cond == nil && !hasBreak(s.Body) {
			return false, be
		}
		return true, be
	case *ast.RangeStmt:
		if exprConsumes(info, obj, s.X) {
			return false, false
		}
		_, be := seqStatus(info, obj, s.Body.List)
		return true, be
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return switchStatus(info, obj, s)
	case *ast.LabeledStmt:
		return stmtStatus(info, obj, s.Stmt)
	case *ast.BranchStmt:
		// break/continue/goto: where control lands is out of scope;
		// assume it can fall onward unconsumed.
		return true, false
	default:
		return !stmtConsumes(info, obj, s), false
	}
}

// switchStatus handles the three switch-like statements uniformly:
// every case body is analyzed; a missing default is a fall-through.
func switchStatus(info *types.Info, obj types.Object, s ast.Stmt) (falls, exits bool) {
	var body *ast.BlockStmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Tag != nil && exprConsumes(info, obj, s.Tag) {
			return false, false
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
	}
	falls = false
	for _, cs := range body.List {
		var stmts []ast.Stmt
		switch cc := cs.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				hasDefault = true
			}
			for _, e := range cc.List {
				if exprConsumes(info, obj, e) {
					return false, false
				}
			}
			stmts = cc.Body
		case *ast.CommClause:
			if cc.Comm == nil {
				hasDefault = true
			} else if stmtConsumes(info, obj, cc.Comm) {
				continue
			}
			stmts = cc.Body
		}
		f, e := seqStatus(info, obj, stmts)
		falls = falls || f
		exits = exits || e
	}
	if !hasDefault {
		falls = true
	}
	return falls, exits
}

// hasBreak reports whether the loop body contains a break that exits
// it (approximated as any unlabeled break not nested in an inner
// loop/switch).
func hasBreak(body *ast.BlockStmt) bool {
	found := false
	var walk func(n ast.Node, inNested bool)
	walk = func(n ast.Node, inNested bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.BranchStmt:
				if m.Tok == token.BREAK && (!inNested || m.Label != nil) {
					found = true
				}
			case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
				if m != n {
					walk(m, true)
					return false
				}
			}
			return true
		})
	}
	for _, s := range body.List {
		walk(s, false)
	}
	return found
}

// isTerminalCall reports panic / Fatal-style calls.
func isTerminalCall(info *types.Info, e ast.Expr) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		return name == "Fatal" || name == "Fatalf" || name == "Exit"
	}
	return false
}

// stmtConsumes reports whether the statement contains a consuming use
// of obj (see exprConsumes), checking the statement's own structural
// positions: assignment into an escaping LHS, channel send, return.
func stmtConsumes(info *types.Info, obj types.Object, s ast.Stmt) bool {
	consumed := false
	ast.Inspect(s, func(n ast.Node) bool {
		if consumed {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if callConsumes(info, obj, n, s) {
				consumed = true
				return false
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if !exprIsObjOrSlice(info, obj, rhs) {
					continue
				}
				// v = append(v, ...) keeps ownership; anything else
				// (x.f = v, m[k] = v, u := v) moves it.
				if i < len(n.Lhs) {
					consumed = true
					return false
				}
			}
		case *ast.SendStmt:
			if exprContainsConsume(info, obj, n.Value) {
				consumed = true
				return false
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if exprContainsConsume(info, obj, r) {
					consumed = true
					return false
				}
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				e := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if exprIsObjOrSlice(info, obj, e) {
					consumed = true
					return false
				}
			}
		}
		return true
	})
	return consumed
}

func exprConsumes(info *types.Info, obj types.Object, e ast.Expr) bool {
	if e == nil {
		return false
	}
	return stmtConsumes(info, obj, &ast.ExprStmt{X: e})
}

// callConsumes reports whether the call passes obj (or a subslice) to
// a callee — a hand-off — excluding the non-consuming readers (len,
// cap, copy, delete, print) and `append(v, ...)` whose result is
// reassigned to v (tracked via the enclosing statement).
func callConsumes(info *types.Info, obj types.Object, call *ast.CallExpr, enclosing ast.Stmt) bool {
	funName := ""
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		funName = fun.Name
	case *ast.SelectorExpr:
		funName = fun.Sel.Name
	}
	switch funName {
	case "len", "cap", "copy", "delete", "print", "println":
		return false
	}
	for i, arg := range call.Args {
		if !exprIsObjOrSlice(info, obj, arg) {
			continue
		}
		if funName == "append" && i == 0 {
			// append(v, ...): consuming only if the grown slice goes
			// somewhere other than back into v.
			if as, ok := enclosing.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
				if id, ok := unparen(as.Lhs[0]).(*ast.Ident); ok {
					lobj := info.Uses[id]
					if lobj == nil {
						lobj = info.Defs[id]
					}
					if lobj == obj && unparen(as.Rhs[0]) == call {
						return false
					}
				}
			}
			return true
		}
		return true
	}
	return false
}

// exprIsObjOrSlice reports whether e is obj itself, a slice of it
// (v[i:j] shares the backing array), or obj threaded through parens.
func exprIsObjOrSlice(info *types.Info, obj types.Object, e ast.Expr) bool {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[e] == obj
	case *ast.SliceExpr:
		return exprIsObjOrSlice(info, obj, e.X)
	case *ast.UnaryExpr:
		return e.Op == token.AND && exprIsObjOrSlice(info, obj, e.X)
	}
	return false
}

// exprContainsConsume is a looser containment test for return values
// and channel sends: obj anywhere in the expression (outside an index
// read) is a hand-off.
func exprContainsConsume(info *types.Info, obj types.Object, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if ix, ok := n.(*ast.IndexExpr); ok {
			// v[i] reads one element; not a hand-off of the buffer.
			ast.Inspect(ix.Index, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && info.Uses[id] == obj {
					found = true
				}
				return true
			})
			if exprIsObjOrSlice(info, obj, ix.X) {
				return false
			}
			return true
		}
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return true
	})
	return found
}

// checkRetention flags handler code that stores a delivered frame's
// payload (msg.Payload, a subslice of it, or the whole msg) into a
// location that outlives the handler call.
func checkRetention(pass *analysis.Pass, allows *allowSet, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	// Message-typed parameters of the function.
	params := make(map[types.Object]bool)
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				obj := info.Defs[name]
				if obj != nil && isTypeFrom(obj.Type(), "netsim", "Message") {
					params[obj] = true
				}
			}
		}
	}
	if len(params) == 0 {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) {
				break
			}
			if !isPayloadRef(info, params, rhs) {
				continue
			}
			if !isEscapingLHS(info, pass.Pkg, as.Lhs[i]) {
				continue
			}
			if allows.allowed("poolown", as.Pos()) {
				continue
			}
			pass.Reportf(as.Pos(),
				"handler retains Message.Payload past return: the transport recycles pooled frames after the handler — copy the bytes (append into an owned buffer) or adopt via SharedPayload refcounting (//lint:allow poolown <reason> for unpooled frames)")
		}
		return true
	})
}

// isPayloadRef matches msg.Payload, msg.Payload[i:j], and msg itself.
func isPayloadRef(info *types.Info, params map[types.Object]bool, e ast.Expr) bool {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		return params[info.Uses[e]]
	case *ast.SelectorExpr:
		if e.Sel.Name != "Payload" {
			return false
		}
		if id, ok := unparen(e.X).(*ast.Ident); ok {
			return params[info.Uses[id]]
		}
	case *ast.SliceExpr:
		return isPayloadRef(info, params, e.X)
	}
	return false
}

// isEscapingLHS reports whether the assignment target outlives the
// function: a field or dereference, an index into anything non-local,
// or a package-level variable.
func isEscapingLHS(info *types.Info, pkg *types.Package, lhs ast.Expr) bool {
	switch lhs := unparen(lhs).(type) {
	case *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
		return true
	case *ast.Ident:
		obj := info.Uses[lhs]
		if obj == nil {
			obj = info.Defs[lhs]
		}
		v, ok := obj.(*types.Var)
		return ok && v.Parent() == pkg.Scope()
	}
	return false
}
