// Package lint is bftlint: an analyzer suite that machine-enforces the
// concurrency, aliasing, and determinism invariants this replica's safety
// argument rests on. PBFT (§4.2, §A) assumes protocol-state access is
// serialized; with verification on receive goroutines and durable logging
// on the WAL writer, that assumption lives in goroutine ownership
// rules that used to exist only in comments and one runtime CAS — and that
// have been violated in shipped code twice (the PR 2 qset-aliasing bug,
// the PR 4 map-order nondeterminism). bftlint turns those rules into
// annotations the compiler toolchain checks on every build. An analyzer
// stays in the suite only if it caught a real bug or guards an annotation
// that still names concurrent code; each one's doc comment says which.
//
// # Running
//
//	go run ./cmd/bftlint ./...
//
// loads the named packages through internal/lint/driver, which is built on
// the standard library alone, and exits 1 on any finding. CI runs it before
// the race tests.
//
// # Annotation grammar
//
// A directive is a comment line of the form
//
//	//bftlint:KEY
//	//bftlint:KEY=VALUE
//
// One space may follow the "//". Anything after the first whitespace
// inside the directive body is human commentary and is ignored, so
//
//	// bftlint:owner=eventloop   (sole mutator: the replica event loop)
//
// is a well-formed owner directive. Directives attach to the declaration
// whose doc comment (or, for struct fields, trailing comment) they appear
// in. bftowner keeps the grammar closed: it reports a key not listed below
// (annot.Keys), an unknown domain, and a bftlint:KEY token that follows
// other comment text, since the grammar never reads it. Prose that names a
// directive quotes it in backquotes, and an indented code block (like the
// examples above) is never read as a directive either. Nor is a line
// indented by more than one space, such as the wrapped continuation of a
// list item that happens to start with bftlint:KEY: it is prose, and no
// finding.
//
// Keys and where they may appear:
//
//	owner=DOMAIN        type, struct field, or method. The state is owned
//	                    by the replica's event loop (eventloop), or is
//	                    explicitly safe for use from any goroutine (shared:
//	                    channels, atomics, immutable-after-construction
//	                    config). A field directive overrides its struct's
//	                    default. On a method, the directive overrides the
//	                    receiver type's owner for calls to that method:
//	                    owner=shared carves a goroutine-safe helper (one
//	                    that touches only shared fields) out of an owned
//	                    type. A shared method is a trust boundary: its
//	                    internal accesses do not propagate to callers, so
//	                    the annotation is a claim to audit, like any
//	                    suppression.
//	entrypoint=worker   function. Its body runs off the event loop (a
//	                    receive-goroutine callback, the WAL writer).
//	                    bftowner checks everything statically reachable
//	                    from it against the ownership rules.
//	runs=worker         function or interface method. Function-literal
//	                    arguments passed to it run off the event loop
//	                    (transport attach handlers, ingress sinks); their
//	                    bodies are checked too.
//	longlived           type. Values outlive the calls that populate
//	                    them; bftalias flags caller-provided slices/maps
//	                    stored into them without a deep copy.
//	send                function or interface method. It emits protocol
//	                    messages; bftmaporder flags calls to it from
//	                    inside a map-range body.
//	deterministic       function. It must compute identically on every
//	                    replica and seeded run; bfttime flags reachable
//	                    time.Now/Since/Until.
//	digest              method. Marks a digest computation not named
//	                    Digest (PrePrepare.BatchDigest) so bftwire checks
//	                    its field coverage.
//	nodigest=REASON     struct field. The field deliberately rides the
//	                    wire outside the digest; REASON is a mandatory
//	                    single token (kebab-case) and the exemption list
//	                    is pinned by TestNoDigestExemptionsAudited.
//	nowire=REASON       struct field. The field is deliberately absent
//	                    from marshalBody/unmarshalBody (derived state);
//	                    same audited-reason rule.
//
// Suppressions acknowledge an intentional exception on the same line or
// the line directly above the finding:
//
//	allow=NAME[,NAME]   suppress the named analyzers (bftowner, bftalias,
//	                    bftrand, bfttime, bftmaporder, bftwire, bfttaint)
//	                    here.
//
// TestDirectiveKeysInUse fails when a listed key annotates nothing outside
// the analyzers' fixtures, so the list cannot outgrow the code it guards.
//
// # Analyzers
//
//   - bftowner: call-graph reachability from entrypoint-annotated
//     functions (and runs=-spawned closures) to event-loop-owned state;
//     reports any touch of it, plus the directive hygiene findings above.
//     Facts propagate summaries across packages, so an entry point in one
//     package reaching owned state in another through three calls is
//     still caught. Interface dispatch is statically invisible; annotate
//     the concrete implementations of cross-goroutine interfaces as
//     entrypoints to close that hole.
//   - bftalias: the PR 2 qset bug shape — caller-provided slice/map
//     memory (parameters, their sub-slices, composite literals embedding
//     them) stored into a `bftlint:longlived` struct without a deep copy.
//   - bftrand: package-global math/rand or math/rand/v2 draws (anything
//     but source constructors); replicas must use their per-replica
//     seeded source so seeded simnet runs stay bit-reproducible.
//   - bfttime: wall-clock reads (time.Now/Since/Until, transitive)
//     reachable from `bftlint:deterministic` functions.
//   - bftmaporder: the PR 4 bug shape — map-range loops that either call
//     a `bftlint:send` function in the body (iteration order reaches the
//     wire) or select a winner via early exit with the key/value escaping
//     (iteration order picks the replier/digest/sequence). Iterate sorted
//     keys instead; see statefetch's retry path for the idiom.
//   - bftwire: wire/digest coverage. Every struct with a
//     marshalBody/unmarshalBody pair must reference each field from BOTH
//     codec sides (or neither, with nowire=REASON), and for digest-bearing
//     messages every wire field must be an input of the digest computation
//     or carry nodigest=REASON — the PR 4 LastMod gap (a field a Byzantine
//     sender can vary under a valid digest), made unrepresentable.
//   - bfttaint: Byzantine-input taint. Integer fields of wire types (any
//     struct with unmarshalBody; WireFact crosses packages) are
//     attacker-controlled; using one as a slice index, slice bound,
//     allocation size, loop bound, or inserted map key without a visible
//     bounds check (a comparison on the same expression, a min/max clamp,
//     or a modulo) is a finding. Calls are sanitizing boundaries.
//
// No analyzer sees a _test.go file: the driver loads only a package's
// GoFiles, because tests exercise nondeterminism and aliasing on purpose.
package lint
