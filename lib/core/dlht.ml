open Dcache_vfs.Types
module Signature = Dcache_sig.Signature
module Trace = Dcache_util.Trace
module Locktab = Dcache_util.Locktab
module Counter = Dcache_util.Stats.Counter
module Counters = Dcache_util.Counters

(* Buckets are intrusive singly-headed doubly-linked chains threaded through
   the dentries themselves ([d_dlht_next] / [d_dlht_prev]): insert and remove
   are O(1) pointer splices with no per-entry cons cells, so table churn
   (renames, mount-alias re-signatures, evictions) never allocates.  The
   chain fields can live on the dentry because a dentry is in at most one
   DLHT at a time (§4.3).

   Invariant relied on by head removal: while a dentry is in the table its
   [d_sig] holds the signature it was inserted under (membership is removed
   before the signature changes — Dcache.detach/shootdown ordering), so the
   owning bucket is always recomputable.

   --- resize ---

   The table doubles when [count] exceeds [grow_load * buckets]: the insert
   that crosses the line builds the doubled bucket array, re-splices every
   chain into it in one pass (the signature is stable while chained, so the
   new slot is just a re-mask) and publishes it.  The whole rehash runs
   inside the insert's write section.

   Lockless readers: exclusive mutation (every insert and so every rehash,
   scrub, global-scope removals) runs under the dcache write lock, which
   brackets the dcache-wide write sequence; sharded removals splice under
   per-stripe locks whose seqcounts the reader records before walking the
   chain.  An optimistic probe that overlaps either kind of write section
   fails its validation and retries, so a probe that walks a chain while
   the rehash re-splices it only needs the walk to be crash-free
   (single-field reads of immediate ints and pointers) and finite, which
   the scan fuel guarantees even across transiently inconsistent splices.

   --- stripe locks ---

   With [stripes] attached, every [remove] splice runs under the stripe
   for the signature's 22-bit bucket index masked to the stripe count
   ([insert] always runs under the write lock and takes none).  The
   stripe count never exceeds the initial bucket count and the table only
   grows, so the stripe mask is a submask of every table mask: a whole
   bucket lives inside one stripe, and a sharded removal's splice never
   touches a bucket outside the stripe it holds. *)

type table = { buckets : dentry option array; mask : int }

type t = {
  mutable tbl : table;
  mutable resize_count : int;
  sigless_scans : int Atomic.t;
      (** times [remove] had to fall back to a whole-table identity scan *)
  ns : namespace;
  count : int Atomic.t;
  stripes : Locktab.t option;  (** sharded-mutation stripe locks; None = legacy *)
  counters : Counter.t;  (** the owning dcache's, for the quarantine cause *)
}

type ns_ext += Dlht_ext of t

(* Entries per bucket before the table doubles. *)
let grow_load = 2

(* A racy (lockless) chain walk can observe transiently inconsistent links
   while a writer splices; the fuel bound turns a would-be infinite walk
   into a miss, which the caller's seqcount validation then converts into a
   locked retry.  Far above any legitimate chain length: [grow_load] bounds
   the average chain, and only the 2^22-bucket ceiling lets it rise. *)
let scan_fuel = 4096

let max_buckets = 1 lsl 22

let make_table buckets = { buckets = Array.make buckets None; mask = buckets - 1 }

let of_namespace_opt ns =
  match ns.ns_ext with Some (Dlht_ext t) -> Some t | Some _ | None -> None

let of_namespace_exn ns =
  match ns.ns_ext with Some (Dlht_ext t) -> t | Some _ | None -> raise Not_found

let of_namespace ?(stripes = 0) ~buckets ~counters ns =
  match ns.ns_ext with
  | Some (Dlht_ext t) -> t
  | Some _ | None ->
    if buckets <= 0 || buckets land (buckets - 1) <> 0 then
      invalid_arg "Dlht.of_namespace: bucket count must be a positive power of two";
    let t =
      {
        tbl = make_table buckets;
        resize_count = 0;
        sigless_scans = Atomic.make 0;
        ns;
        count = Atomic.make 0;
        stripes =
          (* Clamp to the initial bucket count so the stripe mask stays a
             submask of every (only ever growing) table mask. *)
          (if stripes > 0 then Some (Locktab.create (Int.min stripes buckets))
           else None);
        counters;
      }
    in
    ns.ns_ext <- Some (Dlht_ext t);
    t

let locktab t = t.stripes

let bucket_in tbl signature = Signature.bucket signature land tbl.mask

let resizes t = t.resize_count
let sigless_scans t = Atomic.get t.sigless_scans

(* Splice [d] in as the head of [tbl]'s bucket for [signature]. *)
let splice tbl d signature =
  let idx = bucket_in tbl signature in
  let head = tbl.buckets.(idx) in
  let cell = Some d in
  d.d_dlht_next <- head;
  d.d_dlht_prev <- None;
  (match head with Some h -> h.d_dlht_prev <- cell | None -> ());
  tbl.buckets.(idx) <- cell

(* Re-splice the chain in bucket [i] of [src] into [dst]. *)
let drain_bucket t src dst i =
  let rec drain cell =
    match cell with
    | None -> ()
    | Some d ->
      let next = d.d_dlht_next in
      (match d.d_sig with
      | Some signature -> splice dst d signature
      | None ->
        (* Chained with no signature: cannot be re-placed, and a probe
           could never have matched it anyway.  Quarantine, as scrub
           would. *)
        d.d_dlht_next <- None;
        d.d_dlht_prev <- None;
        d.d_dlht_ns <- None;
        Atomic.decr t.count;
        Counter.bump t.counters Counters.quarantined;
        Trace.stamp Trace.ev_quarantine d.d_id);
      drain next
  in
  drain src.buckets.(i)

(* Caller holds the dcache write lock (every insert does). *)
let maybe_grow t =
  let tbl = t.tbl in
  let buckets = Array.length tbl.buckets in
  if buckets < max_buckets && Atomic.get t.count > buckets * grow_load then begin
    let fresh = make_table (buckets * 2) in
    for i = 0 to buckets - 1 do
      drain_bucket t tbl fresh i
    done;
    t.tbl <- fresh;
    t.resize_count <- t.resize_count + 1;
    Trace.stamp Trace.ev_dlht_resize (buckets * 2)
  end

(* Clear [d] from the head slot it owns, verifying head identity before
   writing (never blindly overwrite a slot a stale signature merely points
   at).  Returns false when the candidate slot is not headed by [d]. *)
let clear_head t d next =
  match d.d_sig with
  | None -> false
  | Some signature -> (
    let tbl = t.tbl in
    let idx = bucket_in tbl signature in
    match tbl.buckets.(idx) with
    | Some h when h == d ->
      tbl.buckets.(idx) <- next;
      true
    | _ -> false)

(* Defensive only — the detach ordering makes this unreachable.  Find the
   slot by identity so [count] stays exact even if the invariant is ever
   broken, and make the degradation loud: it is an O(buckets) scan on what
   should be an O(1) splice. *)
let scan_out_head t d next =
  Atomic.incr t.sigless_scans;
  Trace.stamp Trace.ev_dlht_sigless_scan d.d_id;
  let buckets = t.tbl.buckets in
  let n = Array.length buckets in
  let i = ref 0 in
  let found = ref false in
  while (not !found) && !i < n do
    (match buckets.(!i) with
    | Some h when h == d ->
      buckets.(!i) <- next;
      found := true
    | _ -> ());
    incr i
  done

let remove_splice t d =
  let next = d.d_dlht_next in
  let prev = d.d_dlht_prev in
  (match prev with
  | Some p -> p.d_dlht_next <- next
  | None ->
    (* Head of its bucket: recompute the slot from the signature (stable
       while the dentry is in the table; see invariant above). *)
    if not (clear_head t d next) then scan_out_head t d next);
  (match next with Some n -> n.d_dlht_prev <- prev | None -> ());
  d.d_dlht_next <- None;
  d.d_dlht_prev <- None;
  Atomic.decr t.count

let remove_from t d =
  match (t.stripes, d.d_sig) with
  | Some tab, Some signature ->
    let i = Locktab.index tab (Signature.bucket signature) in
    Locktab.with_lock tab i (fun () -> remove_splice t d)
  | None, _ -> remove_splice t d
  | Some _, None ->
    (* Chained with no signature only happens when the detach ordering is
       broken, which only exclusive (write-locked) callers can do — the
       whole-table identity scan is not stripe-safe anyway, so run it
       unlocked exactly as the legacy path would. *)
    remove_splice t d

(* Take [d] out of whichever DLHT holds it, splicing with [unsplice]. *)
let leave d unsplice =
  match d.d_dlht_ns with
  | None -> ()
  | Some ns ->
    (match ns.ns_ext with Some (Dlht_ext t) -> unsplice t d | Some _ | None -> ());
    d.d_dlht_ns <- None;
    Trace.stamp Trace.ev_dlht_remove d.d_id

let remove d = leave d remove_from

(* Every caller holds the dcache write lock, which excludes every sharded
   section (they all hold the read side), and lockless probes validate
   against the global write sequence the write section bumps — so no
   stripe is taken, even to splice out a previous membership, and the
   rehash may touch any bucket. *)
let insert t ns d signature =
  leave d remove_splice;
  splice t.tbl d signature;
  Atomic.incr t.count;
  d.d_dlht_ns <- Some ns;
  maybe_grow t;
  Trace.stamp Trace.ev_dlht_insert d.d_id

(* Both probes return the chain cell that already holds the match ([Some d as
   cell]) instead of rebuilding it, so a hit allocates nothing.  The chain
   scanners are top-level (not local closures over [key]/[signature]): a
   capturing local function would allocate its closure on every probe.
   A miss on a lockless probe is re-checked by the caller's seqcount
   validation before it is believed. *)

let rec scan_chain key signature cell fuel =
  if fuel = 0 then None
  else begin
    match cell with
    | None -> None
    | Some d as found -> (
      match d.d_sig with
      | Some s when Signature.equal key s signature -> found
      | Some _ | None -> scan_chain key signature d.d_dlht_next (fuel - 1))
  end

let find t ~key signature =
  let tbl = t.tbl in
  scan_chain key signature tbl.buckets.(bucket_in tbl signature) scan_fuel

let rec scan_chain_buf key b cell fuel =
  if fuel = 0 then None
  else begin
    match cell with
    | None -> None
    | Some d as found -> (
      match d.d_sig with
      | Some s when Signature.equal_buf key b s -> found
      | Some _ | None -> scan_chain_buf key b d.d_dlht_next (fuel - 1))
  end

let find_buf t ~key b =
  let tbl = t.tbl in
  scan_chain_buf key b tbl.buckets.(Signature.buf_bucket b land tbl.mask) scan_fuel

let population t = Atomic.get t.count

type occupancy = {
  occ_entries : int;
  occ_buckets : int;
  occ_used : int;
  occ_longest : int;
}

let rec chain_length acc = function
  | None -> acc
  | Some d -> chain_length (acc + 1) d.d_dlht_next

let occupancy t =
  let entries = ref 0 and used = ref 0 and longest = ref 0 in
  Array.iter
    (fun head ->
      let len = chain_length 0 head in
      if len > 0 then begin
        incr used;
        entries := !entries + len;
        if len > !longest then longest := len
      end)
    t.tbl.buckets;
  {
    occ_entries = !entries;
    occ_buckets = Array.length t.tbl.buckets;
    occ_used = !used;
    occ_longest = !longest;
  }

let self_check t =
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let entries = ref 0 in
  let tbl = t.tbl in
  Array.iteri
    (fun idx head ->
      (match head with
      | Some h when h.d_dlht_prev <> None ->
        note "bucket %d: head %s has a predecessor" idx h.d_name
      | _ -> ());
      let rec walk prev = function
        | None -> ()
        | Some d ->
          incr entries;
          (match (prev, d.d_dlht_prev) with
          | None, _ -> ()
          | Some p, Some q when q == p -> ()
          | Some _, _ -> note "bucket %d: %s has a broken prev link" idx d.d_name);
          (match d.d_dlht_ns with
          | Some ns when ns == t.ns -> ()
          | _ -> note "bucket %d: %s is chained but not marked as a member" idx d.d_name);
          (match d.d_sig with
          | Some s when bucket_in tbl s = idx -> ()
          | Some _ -> note "bucket %d: %s is chained in the wrong bucket" idx d.d_name
          | None -> note "bucket %d: %s is chained with no signature" idx d.d_name);
          walk (Some d) d.d_dlht_next
      in
      walk None head)
    tbl.buckets;
  if !entries <> Atomic.get t.count then
    note "population: counted %d chained entries but count = %d" !entries
      (Atomic.get t.count);
  List.rev !problems

(* --- scrub ---

   Where [self_check] reports inconsistencies, [scrub] removes them: an
   entry whose chain links, membership mark or signature disagree with the
   table must not be served (a probe could return a dentry for the wrong
   path), so it is quarantined — spliced out and stripped of membership.
   The dentry itself stays cached; the slowpath re-resolves and, if the
   dentry is healthy, republishes it. *)

type scrub_report = {
  scrub_scanned : int;
  scrub_quarantined : int;
  scrub_problems : string list;
}

(* Splice [d] out of bucket [idx] by identity: the quarantined entry's
   signature and prev link are exactly what we cannot trust, so re-walk the
   chain from the head instead of using [remove_from]. *)
let unchain t idx d =
  let buckets = t.tbl.buckets in
  let rec fix prev cell =
    match cell with
    | None -> ()
    | Some x when x == d -> (
      let next = d.d_dlht_next in
      (match prev with
      | None -> buckets.(idx) <- next
      | Some p -> p.d_dlht_next <- next);
      match next with Some n -> n.d_dlht_prev <- prev | None -> ())
    | Some x -> fix (Some x) x.d_dlht_next
  in
  fix None buckets.(idx);
  d.d_dlht_next <- None;
  d.d_dlht_prev <- None;
  d.d_dlht_ns <- None;
  Atomic.decr t.count

let scrub t =
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let scanned = ref 0 in
  let bad = ref [] in
  let tbl = t.tbl in
  Array.iteri
    (fun idx head ->
      let rec walk prev = function
        | None -> ()
        | Some d ->
          incr scanned;
          let prev_ok =
            match (prev, d.d_dlht_prev) with
            | None, None -> true
            | Some p, Some q -> q == p
            | None, Some _ | Some _, None -> false
          in
          let member_ok = match d.d_dlht_ns with Some ns -> ns == t.ns | None -> false in
          let sig_ok = match d.d_sig with Some s -> bucket_in tbl s = idx | None -> false in
          if not (prev_ok && member_ok && sig_ok) then begin
            note "bucket %d: quarantined %s (%s)" idx d.d_name
              (if not sig_ok then "signature/bucket mismatch"
               else if not member_ok then "membership mark"
               else "broken prev link");
            bad := (idx, d) :: !bad
          end;
          walk (Some d) d.d_dlht_next
      in
      walk None head)
    tbl.buckets;
  List.iter
    (fun (idx, d) ->
      unchain t idx d;
      Counter.bump t.counters Counters.quarantined;
      Trace.stamp Trace.ev_quarantine d.d_id)
    !bad;
  {
    scrub_scanned = !scanned;
    scrub_quarantined = List.length !bad;
    scrub_problems = List.rev !problems;
  }
