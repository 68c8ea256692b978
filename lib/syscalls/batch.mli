(** Vectored submission/completion front-end (§3.9).

    An io_uring-style SQ/CQ ring pair bound to one process.  Callers
    enqueue up to [cap] stat probes with {!push_stat}, fire them with
    {!submit}, and read completions back from the CQ with {!ok} /
    {!errno} / {!attr}.  The ring, the per-op hook closures and the walk
    context are all allocated at {!create}; a warm all-hit submit allocates
    {e zero} minor-heap words and takes zero rwlock acquisitions, paying
    one shared seqcount validation window, one trace span and one counter
    bump set for the whole run instead of per op — see
    {!Dcache_core.Fastpath.probe_batch} for the two-phase protocol and the
    correctness argument.

    Semantics match the sequential syscalls exactly: a slot pushed with
    {!push_stat} completes with what [Syscalls.stat] would have returned
    for the same path at the same point.  Differences are confined to
    accounting: batch submissions count under ["batch_submit"]/["batch_ops"]
    (and the validation windows they opened under ["batch_windows"])
    rather than the per-syscall counters, add Table 1's path tallies once
    per submit, and run outside the Fig. 1 syscall timers (the open-loop
    runner charges batch service time to the virtual clock itself). *)

open Dcache_types

type t

val create : ?cap:int -> Proc.t -> t
(** A ring pair of capacity [cap] (default 128) over [proc].
    @raise Invalid_argument when [cap <= 0]. *)

val reset : t -> unit
(** Empty the SQ for reuse.  CQ slots for previously submitted ops become
    stale; store-only, never shrinks. *)

val push_stat : t -> string -> int
(** Enqueue a stat probe (follow trailing symlink).  Returns the slot
    index, or [-1] when the ring is full. *)

val submit : t -> unit
(** Resolve every enqueued op and fill the CQ.  All fastpath hits complete
    before any slowpath walk runs; misses resolve in one write-locked
    phase, grouped by path.  No-op on an empty SQ.  Ops resolve relative
    to the process's cwd at submit time. *)

val ok : t -> int -> bool
(** Did slot [i]'s op succeed?  Valid after {!submit}, until {!reset}.
    @raise Invalid_argument when [i] was not enqueued. *)

val errno : t -> int -> Errno.t
(** Slot [i]'s errno; meaningful only when [ok t i = false]. *)

val attr : t -> int -> Attr.t
(** Slot [i]'s resolved attributes; meaningful only when [ok t i = true].
    The record is the inode's live attribute block, exactly what
    sequential [stat] returns — not a snapshot. *)
