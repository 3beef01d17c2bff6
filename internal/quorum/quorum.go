// Package quorum holds every certificate-size and vote-count threshold of
// the protocol, each a named function of the resilience bound f for
// n = 3f+1 (Castro & Liskov §2.1). The §4.1 safety argument is exactly as
// strong as the weakest threshold comparison in the code: one silent
// off-by-one (a `>= 2*f` where the proof needs 2f+1, an ack count that
// drifts from §3.2.4) re-admits the split-brain executions the
// quorum-intersection lemma excludes. Call sites therefore name the
// certificate they need instead of spelling out its arithmetic, and
// TestThresholds pins each size against the section that defines it.
//
// Naming convention: functions that include the local replica's own vote
// are certificate sizes (Weak, Strong); functions counting only messages
// from *other* replicas carry an explicit suffix or doc note, because
// "2f+1 including myself" and "2f others" are the same quorum expressed
// from two viewpoints and conflating them is precisely the historical
// bug shape this package exists to prevent.
package quorum

// N returns the group size n = 3f+1 that tolerates f Byzantine faults
// (§2.1). It is the inverse of F.
func N(f int) int { return 3*f + 1 }

// F returns the fault threshold f = ⌊(n-1)/3⌋ tolerated by a group of n
// replicas (§2.1).
func F(n int) int { return (n - 1) / 3 }

// Weak returns the weak-certificate size f+1: any set of f+1 replicas
// contains at least one non-faulty one, so f+1 matching claims prove at
// least one honest replica backs the value (§2.3.2 reply certificates,
// §4.3.2 recovery replies, the §2.3.5 view-change join rule, §5.3.2
// state-transfer targets).
func Weak(f int) int { return f + 1 }

// Strong returns the quorum-certificate size 2f+1: any two sets of 2f+1
// replicas intersect in at least one non-faulty replica, which is what
// the §4.1 safety proof's quorum-intersection lemma needs (committed
// certificates, stable checkpoints, view-change sets, read-only reply
// certificates).
func Strong(f int) int { return 2*f + 1 }

// MatchingPrepares returns 2f, the number of prepares from *other*
// replicas (distinct from the primary's pre-prepare) that complete a
// prepared certificate: pre-prepare + 2f prepares = 2f+1 distinct
// replicas vouching for (v, n, d) (§2.3.3).
func MatchingPrepares(f int) int { return 2 * f }

// Acks returns 2f-1, the view-change-ack count that lets the new primary
// accept a view-change message it cannot verify directly: 2f-1 acks from
// replicas other than the primary and the sender, plus the sender's own
// message and the primary's implicit ack, total the 2f+1 the new-view
// certificate requires (§3.2.4).
func Acks(f int) int { return 2*f - 1 }

// Vouchers returns f, the prepare count that substitutes for direct
// request authentication: condition 2 of §3.2.2 accepts a request when f
// *other* replicas sent prepares carrying its batch digest — with this
// replica's own pre-prepare/prepare that is f+1, a weak certificate, so
// at least one honest replica authenticated the request directly.
func Vouchers(f int) int { return f }

// StrongOthers returns 2f, a strong certificate counted from the
// viewpoint of a replica whose own claim is excluded: 2f other replicas
// plus the claimant itself form the 2f+1 quorum. The §4.3.2 recovery
// estimation uses it (2f others report checkpoints at or below the
// candidate).
func StrongOthers(f int) int { return 2 * f }

// WeakOthers returns f, a weak certificate counted excluding the
// claimant's own vote: f others plus the claimant form the f+1 weak
// certificate. The §4.3.2 recovery estimation uses it (f others report
// prepared sequence numbers at or above the candidate).
func WeakOthers(f int) int { return f }
