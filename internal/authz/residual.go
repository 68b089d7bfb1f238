// Residual compilation: partial evaluation of the authorization
// derivation at snapshot publish.
//
// The 4-step derivation of Section 4.3 has a shape fixed by the
// protected object's (resource, group, threshold) policy — only the
// request-specific leaves vary (the observation Halpern–van der Meyden
// exploit when reducing SPKI authorization to tuple-reduction over a
// fixed chain shape). So every snapshot publish compiles, per protected
// (object, group) pair, a residual checklist: the invariant proof steps
// — the believed group-link closure that Step 4's privilege inheritance
// will walk — recorded once as a logic.Segment, plus the ordered leaf
// checks Authorize must still discharge per request (identity validity
// and key revocation, membership validity and revocation, co-signature
// count, freshness window, the live ACL, the temporal condition).
//
// Soundness is inherited from the snapshot discipline: residues live in
// the immutable state, so every belief mutation publishes recompiled
// residues and invalidation is free — a residue can never outlive the
// belief set it was compiled from. The leaves that consult the
// verified-certificate cache (carried across mutations, snapshot.go)
// re-check validity and every revocation the derivation would. The
// object store, by contrast, mutates outside snapshot publishes (writes,
// ACL changes), so the ACL check stays a live leaf and object creation
// or ACL modification triggers RecompileResiduals.

package authz

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	"jointadmin/internal/acl"
	"jointadmin/internal/audit"
	"jointadmin/internal/clock"
	"jointadmin/internal/delegation"
	"jointadmin/internal/logic"
	"jointadmin/internal/pki"
	"jointadmin/internal/sharedrsa"
)

// residualEdge is one believed relation edge recorded into a residue —
// a plain group link (budget-preserving) or a bounded group-graph edge;
// the validity term is re-checked at request time.
type residualEdge struct {
	from, to string
	t        logic.TimeSpec
	// bounded marks a group-graph edge: crossing it costs one unit of
	// traversal budget and clamps the remainder to depth.
	bounded bool
	depth   int
}

// residualDeleg is one believed root-anchored composed delegation
// absorbed into a residue. The invariant chain-composition steps are in
// the segment; interval freshness, the op-in-perms check and per-link
// revocation stay request-time leaves.
type residualDeleg struct {
	d logic.Delegates
}

// residue is the compiled checklist for one (object, group) pair.
type residue struct {
	object, group string
	// seg is the recorded invariant portion of the derivation: the
	// relation-graph closure steps (group links and graph edges), the
	// absorbed delegation chains, and the compile summary, spliceable
	// onto any proof cloned from the same sealed base.
	seg logic.Segment
	// edges is the relation closure reachable from group, for Step 4's
	// budget-bounded inheritance walk.
	edges []residualEdge
	// delegs maps a subject name to its believed composed delegations for
	// this residue's group, deepest remaining bound first (mirroring
	// BeliefStore.DelegationFor's preference).
	delegs map[string][]residualDeleg
	// prefixLen and tracePrefix cache the rendering of the base proof
	// plus the spliced segment, so an approved request renders only its
	// leaf steps.
	prefixLen   int
	tracePrefix string
}

// resKey indexes residues by object and requesting group.
func resKey(object, group string) string { return object + "\x00" + group }

// reachable returns group plus every group reachable from it through
// recorded edges whose validity covers now — the residual counterpart of
// BeliefStore.EffectiveGroups, running the same budget-relaxation walk:
// group links preserve the budget, graph edges cost one unit and clamp
// to their depth bound, and a node is re-relaxed only on a strict
// budget improvement (cycle-safe).
func (r *residue) reachable(group string, now clock.Time) []string {
	out := []string{group}
	if len(r.edges) == 0 {
		return out
	}
	best := map[string]int{group: delegation.Unbounded}
	queue := []string{group}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		budget := best[cur]
		for _, e := range r.edges {
			if e.from != cur || !e.t.Covers(now) {
				continue
			}
			nb := budget
			if e.bounded {
				if budget < 1 {
					continue
				}
				nb = budget - 1
				if e.depth < nb {
					nb = e.depth
				}
			}
			if prev, seen := best[e.to]; !seen || nb > prev {
				if _, seen := best[e.to]; !seen {
					out = append(out, e.to)
				}
				best[e.to] = nb
				queue = append(queue, e.to)
			}
		}
	}
	return out
}

// compileResiduals partially evaluates the derivation of every protected
// object against the engine's belief set. eng must be sealed (it is the
// engine about to be — or already — published). For each object, the
// candidate requesting groups are those on its ACL plus any group whose
// believed link closure reaches one; each candidate gets a residue.
func (s *Server) compileResiduals(eng *logic.Engine) map[string]*residue {
	if s.objects == nil {
		return nil
	}
	names := s.objects.Names()
	if len(names) == 0 {
		return nil
	}

	// The believed relation graph — plain group links plus bounded
	// group-graph edges — recording steps and validity intact.
	type linkEdge struct {
		from, to string
		t        logic.TimeSpec
		bounded  bool
		depth    int
		baseStep int
		f        logic.Formula
	}
	var edges []linkEdge
	adj := make(map[string][]int)
	nodes := make(map[string]bool)
	for _, e := range eng.Store().GroupLinks() {
		l := e.F.(logic.GroupSpeaksFor)
		edges = append(edges, linkEdge{from: l.Sub.Name, to: l.Sup.Name, t: l.T, baseStep: e.Step, f: e.F})
		adj[l.Sub.Name] = append(adj[l.Sub.Name], len(edges)-1)
		nodes[l.Sub.Name], nodes[l.Sup.Name] = true, true
	}
	for _, e := range eng.Store().GraphEdges() {
		l := e.F.(logic.GroupGraphEdge)
		edges = append(edges, linkEdge{from: l.Sub.Name, to: l.Sup.Name, t: l.T, bounded: true, depth: l.Depth, baseStep: e.Step, f: e.F})
		adj[l.Sub.Name] = append(adj[l.Sub.Name], len(edges)-1)
		nodes[l.Sub.Name], nodes[l.Sup.Name] = true, true
	}
	// reach collects every edge index crossable from g under the budget
	// walk (validity windows are checked per request), plus the groups
	// reached. An edge is recorded when it leaves a reachable node with
	// budget to spare, so a residue never bakes in a hop the live walk
	// could not take.
	reach := func(g string) ([]int, map[string]bool) {
		best := map[string]int{g: delegation.Unbounded}
		frontier := []string{g}
		var out []int
		used := make(map[int]bool)
		for len(frontier) > 0 {
			n := frontier[0]
			frontier = frontier[1:]
			budget := best[n]
			for _, ei := range adj[n] {
				e := edges[ei]
				nb := budget
				if e.bounded {
					if budget < 1 {
						continue
					}
					nb = budget - 1
					if e.depth < nb {
						nb = e.depth
					}
				}
				if !used[ei] {
					used[ei] = true
					out = append(out, ei)
				}
				if prev, seen := best[e.to]; !seen || nb > prev {
					best[e.to] = nb
					frontier = append(frontier, e.to)
				}
			}
		}
		seen := make(map[string]bool, len(best))
		for n := range best {
			seen[n] = true
		}
		return out, seen
	}

	// The believed composed delegation chains, grouped by target group and
	// subject, deepest remaining bound first (mirroring DelegationFor's
	// preference so the residual and full paths pick the same chain).
	delegsByGroup := make(map[string]map[string][]logic.Entry)
	for _, e := range eng.Store().Delegations() {
		d := e.F.(logic.Delegates)
		byName := delegsByGroup[d.G.Name]
		if byName == nil {
			byName = make(map[string][]logic.Entry)
			delegsByGroup[d.G.Name] = byName
		}
		chain := byName[d.To.Name]
		at := len(chain)
		for at > 0 && chain[at-1].F.(logic.Delegates).Depth < d.Depth {
			at--
		}
		chain = append(chain, logic.Entry{})
		copy(chain[at+1:], chain[at:])
		chain[at] = e
		byName[d.To.Name] = chain
	}

	baseProof := eng.Proof()
	baseStr := baseProof.String() // rendered once, shared by every trace prefix
	now := s.clk.Now()
	out := make(map[string]*residue)
	for _, object := range names {
		a, err := s.objects.ACLOf(object)
		if err != nil {
			continue
		}
		onACL := make(map[string]bool)
		for _, g := range a.Groups() {
			onACL[g] = true
		}
		if len(onACL) == 0 {
			continue
		}
		cands := make(map[string]bool, len(onACL))
		for g := range onACL {
			cands[g] = true
		}
		for g := range nodes {
			if cands[g] {
				continue
			}
			if _, seen := reach(g); func() bool {
				for n := range seen {
					if onACL[n] {
						return true
					}
				}
				return false
			}() {
				cands[g] = true
			}
		}
		for g := range cands {
			eidx, _ := reach(g)
			p := baseProof.Clone()
			from := p.Len()
			redges := make([]residualEdge, 0, len(eidx))
			premises := make([]int, 0, len(eidx))
			for _, ei := range eidx {
				e := edges[ei]
				id := p.Append(logic.RuleResidualLink, []int{e.baseStep}, e.f, now,
					fmt.Sprintf("recorded for residue (%s, %s): %s ⇒ %s", object, g, e.from, e.to))
				redges = append(redges, residualEdge{from: e.from, to: e.to, t: e.t, bounded: e.bounded, depth: e.depth})
				premises = append(premises, id)
			}
			// Absorb the composed delegation chains targeting g: the
			// chain-composition derivation is snapshot-invariant, so only
			// the op/interval/per-link-revocation leaves remain per request.
			var rdelegs map[string][]residualDeleg
			if byName := delegsByGroup[g]; len(byName) > 0 {
				rdelegs = make(map[string][]residualDeleg, len(byName))
				subjects := make([]string, 0, len(byName))
				for name := range byName {
					subjects = append(subjects, name)
				}
				sort.Strings(subjects)
				for _, name := range subjects {
					for _, e := range byName[name] {
						d := e.F.(logic.Delegates)
						id := p.Append(logic.RuleResidualLink, []int{e.Step}, d, now,
							fmt.Sprintf("recorded for residue (%s, %s): delegation chain to %s", object, g, name))
						rdelegs[name] = append(rdelegs[name], residualDeleg{d: d})
						premises = append(premises, id)
					}
				}
			}
			p.Append(logic.RuleResidualCompile, premises,
				logic.Prop{Name: fmt.Sprintf("residual(%s, %s)", object, g)}, now,
				"invariant steps compiled at snapshot publish; request-variable leaf checks follow per request")
			seg, err := p.Record(from)
			if err != nil {
				continue // unreachable: from is the clone's own length
			}
			var sb strings.Builder
			sb.WriteString(baseStr)
			sb.WriteString(p.StringFrom(from))
			out[resKey(object, g)] = &residue{
				object: object, group: g,
				seg:         seg,
				edges:       redges,
				delegs:      rdelegs,
				prefixLen:   p.Len(),
				tracePrefix: sb.String(),
			}
		}
	}
	if n := len(out); n > 0 {
		s.reg.Counter(MetricResidualCompiles).Add(int64(n))
	}
	return out
}

// RecompileResiduals recompiles the current snapshot's residual
// checklists against the current object set without touching the belief
// state: object creation and ACL modification change which (object,
// group) pairs need residues, not the beliefs they are compiled from —
// so the engine, epoch, watermark and certificate cache all survive.
func (s *Server) RecompileResiduals() {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.state.Load()
	next := *cur
	next.residues = s.compileResiduals(cur.eng)
	s.state.Store(&next)
}

// SetResidualsEnabled toggles the precompiled-residue fast path in
// Authorize (enabled by default). Disabling forces every request down
// the full derivation replay; residues are still compiled at publish,
// so re-enabling needs no recompilation. Benchmarks use this to compare
// both paths on one harness run.
func (s *Server) SetResidualsEnabled(on bool) { s.noResidual.Store(!on) }

// tryResidual attempts the residual fast path: look up the residue for
// (object, group), discharge the leaf checks against the cached
// certificate verifications, and emit the full proof by splicing the
// recorded segment with fresh leaf steps. ok=false means the request
// could not be decided residually — no residue, cold cache, or an
// unsupported membership shape — and nothing was traced or counted: the
// caller falls back to the full replay, which re-runs everything.
func (s *Server) tryResidual(ctx context.Context, st *state, req *AccessRequest) (Decision, error, bool) {
	if len(st.residues) == 0 || len(req.Requests) == 0 {
		return Decision{}, nil, false
	}
	now := s.clk.Now()
	op := req.Requests[0].Op
	object := req.Requests[0].Object

	// The request's working set — lookup maps, leaf-check slices, body
	// encodings — comes from the scratch pool and is cleared on return;
	// only the proof (and the strings on the Decision) escape.
	sc := s.getScratch()
	defer s.putScratch(sc)

	// The attribute certificate names the requesting group and binds the
	// co-signers' keys; its verification must be cached.
	var (
		group        string
		issuer       string
		certValidity clock.Interval
		memFP        string
	)
	boundKey := sc.boundKey
	if req.Delegated {
		c := req.Delegation.Cert
		group, issuer = c.Group, c.Issuer
		boundKey[c.Subject.Name] = c.Subject.KeyID
		certValidity = clock.NewInterval(c.NotBefore, c.NotAfter)
		memFP = pki.Fingerprint(req.Delegation)
	} else if req.SingleSubject {
		c := req.Single.Cert
		group, issuer = c.Group, c.Issuer
		boundKey[c.Subject.Name] = c.Subject.KeyID
		certValidity = clock.NewInterval(c.NotBefore, c.NotAfter)
		memFP = pki.Fingerprint(req.Single)
	} else {
		c := req.Threshold.Cert
		group, issuer = c.Group, c.Issuer
		for _, sub := range c.Subjects {
			boundKey[sub.Name] = sub.KeyID
		}
		certValidity = clock.NewInterval(c.NotBefore, c.NotAfter)
		memFP = pki.Fingerprint(req.Threshold)
	}
	if issuer != st.anchors.AAName {
		return Decision{}, nil, false // full path renders the exact denial
	}
	res := st.residues[resKey(object, group)]
	if res == nil {
		return Decision{}, nil, false
	}
	memHit, ok := st.cache.get(memFP)
	if !ok {
		return Decision{}, nil, false
	}
	var (
		mem    logic.MemberOf
		dcands []residualDeleg
	)
	if req.Delegated {
		// The cached leaf must be a delegation link and the residue must
		// have absorbed a composed chain for the subject.
		if _, ok := memHit.formula.(logic.Delegates); !ok {
			return Decision{}, nil, false
		}
		dcands = res.delegs[req.Delegation.Cert.Subject.Name]
		if len(dcands) == 0 {
			return Decision{}, nil, false
		}
	} else {
		mem, ok = memHit.formula.(logic.MemberOf)
		if !ok {
			return Decision{}, nil, false
		}
		// Membership shapes with a residual conclusion: threshold compound
		// principal (A38) and single principal (A34/A35). Anything else goes
		// through ConcludeGroupSays's full dispatch.
		switch who := mem.Who.(type) {
		case logic.Principal:
		case logic.CompoundPrincipal:
			if !who.IsThreshold() {
				return Decision{}, nil, false
			}
		default:
			return Decision{}, nil, false
		}
	}
	idHits := grow(sc.idHits, len(req.Identities))
	sc.idHits = idHits
	for i := range req.Identities {
		e, ok := st.cache.get(pki.Fingerprint(req.Identities[i]))
		if !ok {
			return Decision{}, nil, false
		}
		if _, ok := e.formula.(logic.KeySpeaksFor); !ok {
			return Decision{}, nil, false
		}
		idHits[i] = e
	}

	// Splice the recorded segment before committing, so a (never
	// expected) mismatch still falls back cleanly instead of tracing.
	pr := st.eng.Proof().Clone()
	if _, err := pr.Splice(res.seg); err != nil {
		return Decision{}, nil, false
	}

	// Committed to the fast path: from here every outcome is decided
	// residually, with the same traces, metrics and denial reasons the
	// full path produces.
	s.reg.Counter(MetricResidualHits).Inc()
	s.reg.Counter(MetricCacheHits, "kind", "attribute").Inc()
	for range req.Identities {
		s.reg.Counter(MetricCacheHits, "kind", "identity").Inc()
	}
	tr := s.beginTrace()
	tr.res = res
	deny := func(group, reason string) (Decision, error, bool) {
		dec, err := s.deny(tr, req, group, reason, pr)
		return dec, err, true
	}
	abort := func(err error) (Decision, error, bool) {
		dec, aerr := s.abort(tr, err)
		return dec, aerr, true
	}

	tr.begin(StepFreshness)
	if err := ctx.Err(); err != nil {
		return abort(err)
	}
	if w := st.anchors.FreshnessWindow; w > 0 {
		for _, r := range req.Requests {
			delta := int64(now) - int64(r.At)
			if delta < 0 {
				delta = -delta
			}
			if delta > w {
				return deny("", fmt.Sprintf("request of %s at %s outside freshness window (now %s): %v",
					r.User, r.At, now, ErrStale))
			}
		}
	}

	store := st.eng.Store()

	// ---- Step 1 leaves: cached identity verifications, re-checked for
	// validity and key revocation at the current time. ----
	tr.begin(StepCerts)
	userKeys, userKS := sc.userKeys, sc.userKS
	for i, idc := range req.Identities {
		e := idHits[i]
		ks := e.formula.(logic.KeySpeaksFor)
		if !e.validity.Contains(now) {
			return deny("", fmt.Sprintf("identity certificate invalid: %v", pki.ErrExpired))
		}
		if store.KeyRevoked(e.signer, now) {
			return deny("", "no key belief for CA "+idc.Cert.Issuer)
		}
		if store.KeyRevoked(ks.K, now) {
			return deny("", keyRevokedReason(ks.K, now))
		}
		pr.Append(logic.RuleResidualLeaf, nil, ks, now, e.note)
		userKeys[idc.Cert.Subject] = e.subjectKey
		userKS[idc.Cert.Subject] = ks
	}

	// ---- Step 2 leaf: cached membership, re-checked for validity and
	// revocation. On the delegated path the leaves are the absorbed
	// chain's interval, the op-in-perms check, and per-link revocation
	// (subject plus every delegator on the path). ----
	tr.begin(StepThreshold)
	if err := ctx.Err(); err != nil {
		return abort(err)
	}
	if !memHit.validity.Contains(now) {
		return deny(group, fmt.Sprintf("%s certificate invalid: %v", certKind(req), pki.ErrExpired))
	}
	var memStep int
	if req.Delegated {
		subject := req.Delegation.Cert.Subject.Name
		var chain *logic.Delegates
		revokedSeen := false
		for i := range dcands {
			d := &dcands[i].d
			if !d.T.Covers(now) {
				continue
			}
			linkRevoked := false
			for _, name := range delegation.Links(*d) {
				if store.Revoked(logic.P(name), logic.G(group), now) {
					linkRevoked = true
					break
				}
			}
			if linkRevoked {
				revokedSeen = true
				continue
			}
			chain = d
			break // deepest first: the chain DelegationFor would pick
		}
		if chain == nil {
			if revokedSeen {
				s.reg.Counter(delegation.MetricLinkRevocationDenials).Inc()
				return deny(group, fmt.Sprintf("delegation derivation failed: a chain link for %s in %s is revoked as of %s",
					subject, group, now))
			}
			return deny(group, fmt.Sprintf("delegation derivation failed: no believed chain for %s in %s valid at %s",
				subject, group, now))
		}
		m, err := logic.DelegationMember(*chain, string(op), now)
		if err != nil {
			return deny(group, "delegation derivation failed: "+err.Error())
		}
		mem = m
		certValidity = clock.NewInterval(chain.T.Time(), chain.T.End())
		memStep = pr.Append(logic.RuleResidualLeaf, nil, mem, now,
			"membership of "+subject+" in "+group+" derived from the absorbed delegation chain ["+chain.Path+"]")
	} else {
		if store.KeyRevoked(memHit.signer, now) {
			return deny(group, "no key belief for AA")
		}
		if store.Revoked(mem.Who, mem.G, now) {
			return deny(group, membershipRevokedReason(mem, now))
		}
		memStep = pr.Append(logic.RuleResidualLeaf, nil, mem, now, memHit.note)
	}

	// ---- Step 3 leaves: structural checks, RSA co-signature
	// verification on the parallel fan-out, signed-utterance steps. ----
	tr.begin(StepCosign)
	items := grow(sc.items, len(req.Requests))
	sc.items = items
	sigs := grow(sc.sigs, len(req.Requests))
	sc.sigs = sigs
	bodyBuf, bodyOff := sc.bodyBuf[:0], sc.bodyOff[:0]
	for i, r := range req.Requests {
		if r.Op != op || r.Object != object {
			return deny(group, "co-signers disagree on the request")
		}
		upk, ok := userKeys[r.User]
		if !ok {
			return deny(group, fmt.Sprintf("%s: %v", r.User, ErrMissingIdentity))
		}
		want, ok := boundKey[r.User]
		if !ok {
			return deny(group, r.User+" is not a subject of the threshold certificate")
		}
		// The cached Step-1 formula's key ID is the verified ID of upk, so
		// a string compare replaces re-hashing the key (KeyID is
		// sha256 + hex per call — measurable at load-harness rates).
		if string(userKS[r.User].K) != want {
			return deny(group, r.User+"'s identity key differs from the certificate binding")
		}
		// All bodies append into one pooled buffer; the item slices are
		// fixed up below, once the buffer stops growing. The signature
		// values parse into pooled big.Ints (SetString reuses their limbs).
		start := len(bodyBuf)
		bodyBuf = appendRequestBody(bodyBuf, &req.Requests[i])
		bodyOff = append(bodyOff, start, len(bodyBuf))
		sig := &sigs[i]
		if _, ok := sig.SetString(r.SigS, 16); !ok {
			sc.bodyBuf, sc.bodyOff = bodyBuf, bodyOff
			return deny(group, r.User+": malformed signature")
		}
		items[i] = cosignItem{user: r.User, sig: sharedrsa.Signature{S: sig}, upk: upk}
	}
	sc.bodyBuf, sc.bodyOff = bodyBuf, bodyOff
	for i := range items {
		items[i].body = bodyBuf[bodyOff[2*i]:bodyOff[2*i+1]]
	}
	err := forEachParallel(ctx, len(items), s.verifyParallelism(), func(_ context.Context, i int) error {
		if err := sharedrsa.Verify(items[i].body, items[i].upk, items[i].sig); err != nil {
			return errors.New(items[i].user + ": request signature invalid")
		}
		return nil
	})
	if err != nil {
		if ctxErr(err) {
			return abort(err)
		}
		return deny(group, err.Error())
	}
	utterances := grow(sc.utter, len(req.Requests))
	sc.utter = utterances
	utterSteps := grow(sc.utterSteps, len(req.Requests))
	sc.utterSteps = utterSteps
	for i, r := range req.Requests {
		// The signed form of the utterance, exactly as VerifySignedRequest
		// records it — A38 consumes it to check each co-signer's bound key.
		content := idealContent(op, object, r.Payload)
		signed := logic.Sign(logic.AsMessage(logic.Says{
			Who: logic.P(r.User),
			T:   logic.At(r.At),
			X:   content,
		}), userKS[r.User].K)
		says := logic.Says{Who: logic.P(r.User), T: logic.At(r.At), X: signed}
		utterances[i] = says
		utterSteps[i] = pr.Append(logic.RuleResidualLeaf, nil, says, now,
			"signed utterance of "+r.User+" verified against the cached key binding")
	}

	// Conclude "G says X" (statement 25) with the pure axiom functions —
	// the same rules ConcludeGroupSays dispatches to, minus its store
	// bookkeeping.
	var gs logic.GroupSays
	var rule string
	switch who := mem.Who.(type) {
	case logic.Principal:
		if who.IsBound() {
			ks, ok := userKS[who.Name]
			if !ok {
				return deny(group, "threshold not met: group says: no key belief for bound member "+who.Name)
			}
			gs, err = logic.A35MemberSaysKeyBound(mem, ks, utterances[0])
			rule = logic.RuleA35GroupSaysKey
		} else {
			gs, err = logic.A34MemberSays(mem, utterances[0])
			rule = logic.RuleA34GroupSays
		}
	case logic.CompoundPrincipal:
		gs, err = logic.A38Threshold(mem, utterances, now)
		rule = logic.RuleA38Threshold
	}
	if err != nil {
		return deny(group, "threshold not met: "+err.Error())
	}
	premises := append(append(sc.premises[:0], memStep), utterSteps...)
	sc.premises = premises
	pr.Append(rule, premises, gs, now, "statement 25: G says X")

	// ---- Step 4: the live ACL against the residue's link closure, plus
	// the temporal condition tb' ≤ t1 ∧ t6 ≤ te'. ----
	tr.begin(StepACL)
	if err := ctx.Err(); err != nil {
		return abort(err)
	}
	a, err := s.objects.ACLOf(object)
	if err != nil {
		return deny(group, "object lookup: "+err.Error())
	}
	allowed := false
	for _, g := range res.reachable(group, now) {
		if a.Allows(g, op) {
			allowed = true
			break
		}
	}
	if !allowed {
		return deny(group, fmt.Sprintf("(%s, %s) ∉ ACL_%s (including inherited groups)", group, op, object))
	}
	if certValidity.Begin > req.Requests[0].At || now > certValidity.End {
		return deny(group, "certificate validity does not span the request")
	}

	// Execute.
	tr.begin(StepExecute)
	data, err := s.execute(op, object, req.Requests[0].Payload, group)
	if err != nil {
		return deny(group, "execution failed: "+err.Error())
	}

	tr.endOK()
	tr.finish(true, "")
	reason := gs.String()
	s.audit(audit.Entry{
		At: now, Outcome: audit.Approved, Server: s.name,
		Requestor: req.Requests[0].User, Operation: string(op),
		Object: object, Group: group,
		Reason:     reason,
		RequestID:  tr.id,
		Spans:      tr.spans,
		ProofTrace: tr.render(pr),
	})
	return Decision{Allowed: true, Group: group, Reason: reason, RequestID: tr.id, Proof: pr, Data: data}, nil, true
}

// execute performs the approved operation on the object store (shared by
// the residual fast path and the full replay path). A successful ACL
// modification recompiles the residual checklists: the candidate
// (object, group) pairs depend on the ACLs, though the beliefs they are
// compiled from do not change.
func (s *Server) execute(op acl.Permission, object string, payload []byte, group string) ([]byte, error) {
	switch op {
	case acl.Read:
		return s.objects.Read(object)
	case acl.Write:
		return nil, s.objects.Write(object, payload, group)
	case acl.Modify:
		var entries []acl.Entry
		if err := json.Unmarshal(payload, &entries); err != nil {
			return nil, err
		}
		newACL, err := acl.NewACL(entries...)
		if err != nil {
			return nil, err
		}
		if err := s.objects.SetACL(object, newACL, group); err != nil {
			return nil, err
		}
		s.RecompileResiduals()
		return nil, nil
	default:
		return nil, fmt.Errorf("unsupported operation %q", op)
	}
}
