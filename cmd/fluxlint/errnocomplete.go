package main

// errno-completeness: RPC dispatch switches must stay in agreement with
// the protocol's declared errno sets.
//
// internal/wire/errno.go declares, per operation ("barrier.enter",
// "kvs.get", ...), the errno values that operation is allowed to return
// (wire.OpErrnos). This pass checks every request-dispatch switch —
// a switch whose tag is <msg>.Method() on a wire.Message — that emits
// at least one errno somewhere in its clauses:
//
//   - the switch must have a default clause: an unknown method must get
//     an explicit error response (ENOSYS), not silence.
//   - the set of constant case methods must match exactly one declared
//     service in wire.OpErrnos; a dispatch whose method set matches no
//     service is serving operations the protocol table does not know.
//   - every operation the table declares for that service must appear
//     as a case: a declared op with no dispatch arm is dead protocol.
//   - each clause may only emit errnos declared for its operation(s).
//     Emission is computed transitively through same-package callees
//     (the summary layer), so a handler that delegates to a helper is
//     charged with the helper's errnos. Non-constant emissions are
//     given the benefit of the doubt; default-clause bodies are exempt
//     (the ENOSYS fallback is the point of the default).
//
// The wire package itself is exempt (it declares the table), and so is
// any build without a wire.OpErrnos declaration in a loaded package —
// the pass degrades to a no-op rather than inventing a table.

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"sort"
	"strings"
)

const errnoCompletenessName = "errno-completeness"

var errnoCompletenessPass = Pass{
	Name: errnoCompletenessName,
	Doc:  "check RPC dispatch switches against the declared wire.OpErrnos table",
	Run:  runErrnoCompleteness,
}

// opErrnoTable is the folded wire.OpErrnos declaration: op string ->
// allowed errno values, plus a value -> Errno* constant name reverse map
// for messages.
type opErrnoTable struct {
	ops   map[string]map[int64]bool
	names map[int64]string
}

// loadOpErrnos folds the OpErrnos declaration out of the loaded package
// named "wire" (real module or fixture corpus alike). Returns nil when
// no loaded wire package declares one.
func loadOpErrnos(l *Loader) *opErrnoTable {
	for _, wp := range l.pkgs {
		if wp.Types.Name() != "wire" || wp.Types.Scope().Lookup("OpErrnos") == nil {
			continue
		}
		t := &opErrnoTable{ops: map[string]map[int64]bool{}, names: map[int64]string{}}
		for _, f := range wp.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				vs, ok := n.(*ast.ValueSpec)
				if !ok {
					return true
				}
				for i, name := range vs.Names {
					if name.Name != "OpErrnos" || i >= len(vs.Values) {
						continue
					}
					cl, ok := vs.Values[i].(*ast.CompositeLit)
					if !ok {
						continue
					}
					for _, el := range cl.Elts {
						kv, ok := el.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						tv, ok := wp.Info.Types[kv.Key]
						if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
							continue
						}
						op := constant.StringVal(tv.Value)
						set := map[int64]bool{}
						if vals, ok := kv.Value.(*ast.CompositeLit); ok {
							for _, ve := range vals.Elts {
								if etv, ok := wp.Info.Types[ve]; ok && etv.Value != nil {
									if v, exact := constant.Int64Val(constant.ToInt(etv.Value)); exact {
										set[v] = true
									}
								}
							}
						}
						t.ops[op] = set
					}
				}
				return true
			})
		}
		if len(t.ops) == 0 {
			continue
		}
		// Reverse-map the package's Errno* constants for messages.
		scope := wp.Types.Scope()
		for _, nm := range scope.Names() {
			if !strings.HasPrefix(nm, "Errno") {
				continue
			}
			if c, ok := scope.Lookup(nm).(interface{ Val() constant.Value }); ok {
				if v, exact := constant.Int64Val(constant.ToInt(c.Val())); exact {
					if prev, seen := t.names[v]; !seen || nm < prev {
						t.names[v] = nm
					}
				}
			}
		}
		return t
	}
	return nil
}

func (t *opErrnoTable) errnoName(v int64) string {
	if nm, ok := t.names[v]; ok {
		return nm
	}
	return fmt.Sprintf("errno %d", v)
}

// services returns the sorted set of service prefixes the table declares.
func (t *opErrnoTable) services() []string {
	set := map[string]bool{}
	for op := range t.ops {
		if i := strings.IndexByte(op, '.'); i > 0 {
			set[op[:i]] = true
		}
	}
	return sortedKeys(set)
}

func runErrnoCompleteness(l *Loader, p *Package) []Finding {
	if p.Types.Name() == "wire" {
		return nil // the table's own package
	}
	table := loadOpErrnos(l)
	if table == nil {
		return nil
	}
	c := &completeChecker{l: l, p: p, ix: indexOf(p), table: table}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if sw, ok := n.(*ast.SwitchStmt); ok {
				c.checkSwitch(sw)
			}
			return true
		})
	}
	return c.findings
}

type completeChecker struct {
	l        *Loader
	p        *Package
	ix       *pkgIndex
	table    *opErrnoTable
	findings []Finding
}

func (c *completeChecker) report(pos token.Pos, format string, args ...any) {
	c.findings = append(c.findings, Finding{
		Pass: errnoCompletenessName,
		Pos:  c.l.Fset.Position(pos),
		Msg:  fmt.Sprintf(format, args...),
	})
}

// isMethodDispatch reports whether sw switches on <msg>.Method() for a
// wire.Message receiver.
func (c *completeChecker) isMethodDispatch(sw *ast.SwitchStmt) bool {
	ce, ok := ast.Unparen(sw.Tag).(*ast.CallExpr)
	if !ok || len(ce.Args) != 0 {
		return false
	}
	se, ok := ce.Fun.(*ast.SelectorExpr)
	if !ok || se.Sel.Name != "Method" {
		return false
	}
	return isWireMessagePtr(c.p.Info.TypeOf(se.X))
}

// clauseInfo is one case clause's folded methods and emitted errnos.
type clauseInfo struct {
	clause    *ast.CaseClause
	methods   []string // constant-folded case strings
	allConst  bool     // every case expression folded
	isDefault bool
	emitted   map[int64]token.Pos // errno value -> first emission site
	via       map[int64]string    // errno value -> provenance
}

func (c *completeChecker) checkSwitch(sw *ast.SwitchStmt) {
	if sw.Body == nil || !c.isMethodDispatch(sw) {
		return
	}
	var clauses []*clauseInfo
	hasDefault := false
	emitsAny := false
	for _, s := range sw.Body.List {
		cc, ok := s.(*ast.CaseClause)
		if !ok {
			continue
		}
		info := &clauseInfo{clause: cc, allConst: true,
			emitted: map[int64]token.Pos{}, via: map[int64]string{}}
		if cc.List == nil {
			info.isDefault = true
			hasDefault = true
		}
		for _, e := range cc.List {
			if tv, ok := c.p.Info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
				info.methods = append(info.methods, constant.StringVal(tv.Value))
			} else {
				info.allConst = false
			}
		}
		c.collectEmitted(cc, info)
		if len(info.emitted) > 0 {
			emitsAny = true
		}
		clauses = append(clauses, info)
	}
	if !emitsAny {
		return // not an error-responding dispatch; out of scope
	}

	if !hasDefault {
		c.report(sw.Pos(), "request dispatch switch has no default clause; unknown methods need an explicit ErrnoNoSys response")
	}

	// Infer the service: the one whose declared ops cover every constant
	// case method. A dotted case string is matched as a full op key.
	var methods []string
	allConst := true
	for _, info := range clauses {
		if info.isDefault {
			continue
		}
		methods = append(methods, info.methods...)
		allConst = allConst && info.allConst
	}
	if len(methods) == 0 {
		return
	}
	var matches []string
	for _, svc := range c.table.services() {
		ok := true
		for _, m := range methods {
			if _, declared := c.table.ops[c.opKey(svc, m)]; !declared {
				ok = false
				break
			}
		}
		if ok {
			matches = append(matches, svc)
		}
	}
	if len(matches) == 0 {
		c.report(sw.Pos(), "dispatch methods [%s] match no service declared in wire.OpErrnos",
			strings.Join(methods, " "))
		return
	}
	if len(matches) > 1 {
		return // ambiguous method set; nothing safe to check
	}
	svc := matches[0]

	// Coverage: every op the table declares for this service needs an
	// arm. Skipped when some case failed to fold (a dynamic topic could
	// be the missing arm).
	if allConst {
		caseSet := map[string]bool{}
		for _, m := range methods {
			caseSet[c.opKey(svc, m)] = true
		}
		var missing []string
		for op := range c.table.ops {
			if strings.HasPrefix(op, svc+".") && !caseSet[op] {
				missing = append(missing, op)
			}
		}
		sort.Strings(missing)
		for _, op := range missing {
			c.report(sw.Pos(), "declared op %s has no case in this dispatch switch", op)
		}
	}

	// Per-clause: emitted errnos must be declared for the clause's ops.
	for _, info := range clauses {
		if info.isDefault || !info.allConst || len(info.emitted) == 0 {
			continue
		}
		declared := map[int64]bool{}
		for _, m := range info.methods {
			for v := range c.table.ops[c.opKey(svc, m)] {
				declared[v] = true
			}
		}
		var bad []int64
		for v := range info.emitted {
			if !declared[v] {
				bad = append(bad, v)
			}
		}
		sort.Slice(bad, func(i, j int) bool { return bad[i] < bad[j] })
		for _, v := range bad {
			op := c.opKey(svc, info.methods[0])
			c.report(info.emitted[v], "%s handler can emit %s (%s); not declared in wire.OpErrnos[%q]",
				op, c.table.errnoName(v), info.via[v], op)
		}
	}
}

// opKey resolves a case string to a table key: dotted strings are full
// op names already, bare ones get the service prefix.
func (c *completeChecker) opKey(svc, method string) string {
	if strings.Contains(method, ".") {
		return method
	}
	return svc + "." + method
}

// collectEmitted gathers the errnos a clause body can emit: direct
// builder calls (constant-folded) and same-package callees via the
// summary layer. Function literals inside the clause are included —
// a handler that responds from a spawned goroutine still emits.
func (c *completeChecker) collectEmitted(cc *ast.CaseClause, info *clauseInfo) {
	record := func(v int64, pos token.Pos, via string) {
		if _, seen := info.emitted[v]; !seen {
			info.emitted[v] = pos
			info.via[v] = via
		}
	}
	for _, s := range cc.Body {
		ast.Inspect(s, func(n ast.Node) bool {
			ce, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := calleeName(ce.Fun)
			if idx, isBuilder := errnoBuilders[name]; isBuilder {
				if len(ce.Args) > idx {
					if v, ok := c.ix.constInt(ce.Args[idx]); ok {
						record(v, ce.Args[idx].Pos(), errnoArgName(ce.Args[idx]))
					}
					// Non-constant errnum: benefit of the doubt (the
					// errno-discipline pass polices raw values).
				}
				return true
			}
			if callee := c.ix.calleeDecl(ce.Fun); callee != nil {
				sub := c.ix.errnoEmitted(callee)
				for v, via := range sub.values {
					record(v, ce.Pos(), via+" via "+callee.Name.Name)
				}
			}
			return true
		})
	}
}
