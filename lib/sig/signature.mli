(** Path signatures (paper §3.3).

    The optimized directory cache keys its Direct Lookup Hash Table by the
    full canonical path.  Comparing multi-kilobyte path strings on every
    probe would erode the algorithmic win, so paths are summarized by a
    multilinear 2-universal hash over four independent lanes: the low
    22 bits index the hash bucket and the bits above 16 form the signature
    compared on probes.  (The paper uses a 240-bit signature; our lanes are
    the native 63-bit integers, giving a 236-bit signature — same design,
    avoids boxed arithmetic.)

    The hash is resumable: a dentry stores the intermediate [state] of its
    canonical path, so a relative lookup under a cwd resumes hashing from
    the cwd's state instead of re-hashing the prefix (§3.1).

    The hash function is keyed with a boot-time random value, so collisions
    cannot be precomputed offline (§3.3).  For tests, [create_key] accepts
    [~sig_bits] to truncate the compared signature and force collisions,
    exercising the safety fallback. *)

type t
(** A 4-lane digest: 22-bit bucket index + up to 236-bit signature. *)

type key
(** Hash-function key plus comparison configuration. *)

type state = { pos : int; l0 : int; l1 : int; l2 : int; l3 : int }
(** Intermediate multilinear state after feeding [pos] bytes.  Exposed as a
    plain record so resuming allocates nothing beyond the record itself. *)

val max_sig_bits : int

val create_key : ?sig_bits:int -> seed:int -> unit -> key
(** [create_key ~seed ()] derives the per-boot key material.  [sig_bits]
    (default {!max_sig_bits}, clamped to [1, max_sig_bits]) narrows the
    number of signature bits compared by {!equal}, for collision-injection
    tests. *)

val sig_bits : key -> int
val empty_state : state
val feed_string : key -> state -> string -> state
val feed_char : key -> state -> char -> state

val finalize : key -> state -> t
(** Mix the lanes into the final digest; non-destructive. *)

val hash_string : key -> string -> t

val bucket : t -> int
(** Low 22 bits: DLHT bucket index in [0, 2^22).  Tables mask it down to
    their current size; 22 bits covers the resize ceiling, so doublings
    keep spreading entries instead of stalling at 2^16 used buckets.
    Bits 16..21 double as compared-signature bits, which is harmless (the
    index is derived from the signature, not a substitute for it). *)

val equal : key -> t -> t -> bool
(** Signature comparison over the configured [sig_bits] (excluding the
    bucket bits, mirroring the paper's index/signature split). *)

val to_hex : t -> string
(** Lanes [a], [b], [c], [d] as four 16-digit hex fields. *)

val of_lanes : a:int -> b:int -> c:int -> d:int -> t
(** The digest with these lanes: lets tests build signatures that differ
    in chosen bits. *)

val compare_full : t -> t -> int
(** Total order over all lanes, for use in test containers. *)

(** {1 In-place hashing (allocation-free fastpath)}

    Mutable mirrors of [state] and [t].  A probe preallocates one {!mstate}
    and one {!buf} (per domain) and reuses them for every lookup, so feeding
    bytes, finalizing and comparing against stored signatures allocate
    nothing on the minor heap.  The pure API above remains the source of
    truth for the slowpath and for states cached on dentries. *)

type mstate
(** Mutable running multilinear state. *)

val mstate : unit -> mstate
val mstate_reset : mstate -> unit

val mstate_resume : mstate -> state -> unit
(** Load a cached pure state (e.g. a cwd dentry's resume point). *)

val scan_done : int
val scan_toolong : int

val skip_slashes : string -> int -> int -> int
(** [skip_slashes s len i]: the first offset at or after [i] that is not a
    ['/'], or [len]. *)

val component_end : string -> int -> int -> int
(** [component_end s len j]: the first ['/'] at or after [j], or [len]. *)

(** {1 Component-boundary snapshots (prefix-resumed slowpath)}

    A preallocated store of intermediate hash states, one per component
    boundary fed by {!hash_path_into_rec}.  On a table miss the caller
    re-finalizes the recorded slots deepest-first ({!finalize_snap_into})
    to look for the longest cached ancestor prefix — without re-hashing
    and without allocating. *)

type snaps
(** Flat int-array snapshot store; created once, reused for every probe. *)

val snaps : slots:int -> snaps
(** [snaps ~slots] preallocates room for [slots] boundaries.  Size it to
    the maximum possible component count (e.g. [max_path / 2 + 2]) so
    steady state never overflows. *)

val snaps_reset : snaps -> unit
(** Forget all recorded boundaries (two int stores; call per probe). *)

val snaps_count : snaps -> int
(** Number of boundaries recorded since the last reset.  Slot [n - 1] is
    the state after the final fed component (i.e. the full path). *)

val snaps_cursor : snaps -> int -> int
(** Byte offset in the raw path just past the component of slot [i]: the
    remaining suffix of the scanned path starts there. *)

val snaps_overflowed : snaps -> bool
(** True when more boundaries were fed than [slots]; recorded slots remain
    valid, deeper ones were dropped. *)

val snaps_components : snaps -> int
(** Non-empty components {!hash_path_into_rec} passed since the last
    reset, ["."] and [".."] included, and the one it rejected as too long:
    once the scans reach {!scan_done}, the path's component count. *)

val hash_path_into_rec : key -> mstate -> snaps -> max_name:int -> string -> pos:int -> int
(** [hash_path_into_rec key ms snaps ~max_name s ~pos] scans the raw path
    string [s] from byte offset [pos], feeding ["/" ^ name] into [ms] for
    every real component and recording a boundary snapshot into [snaps]
    after each.  It skips empty components (leading / doubled / trailing
    slashes) and ["."] — the same canonicalization the list-based walk
    applies to [Path.split] output, with no intermediate list — and counts
    every non-empty component it passes ({!snaps_components}).  Returns
    {!scan_done} when the string is exhausted, {!scan_toolong} if a
    component exceeds [max_name], or the cursor just past a [".."]
    component so the caller can apply its dot-dot semantics and resume.
    Allocation-free. *)

val snaps_pop : snaps -> mstate -> bool
(** Plan 9 lexical [".."]: drop the deepest recorded boundary (there must
    be one) and rewind the [mstate] to the boundary below it.  Returns
    [false], leaving the [mstate] untouched, when no boundary is left.
    Allocation-free. *)

type buf
(** Mutable finalized digest (the in-place counterpart of [t]). *)

val buf : unit -> buf

val finalize_snap_into : key -> snaps -> int -> buf -> unit
(** Finalize the boundary state recorded in slot [i] into the buffer — the
    prefix signature covering the first [i + 1] fed components.  Does not
    disturb any [mstate].  Allocation-free. *)

val finalize_into : key -> mstate -> buf -> unit
(** Non-destructive on the [mstate]; overwrites the [buf]. *)

val buf_bucket : buf -> int
val equal_buf : key -> buf -> t -> bool
val of_buf : buf -> t
(** Allocating: freeze the buffer into an immutable [t] (slowpath only). *)
