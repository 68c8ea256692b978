(* Request-scoped causal profiling (§3.8).

   Two pillars, both preallocated and disarmed-by-default, matching the
   Trace ring's overhead discipline: disarmed every hook is a single
   load-and-branch; armed, recording is plain int/pointer stores into
   preallocated arrays — zero minor-heap words, so the whole profiler can
   stay armed across a zero-allocation fastpath run.

   1. Span ids.  Every syscall entry allocates a request-scoped span id
      from a per-domain scratch counter (ids are handed out in per-domain
      blocks off one global atomic, so two domains never mint the same id)
      and installs it as the domain's current span.  The id rides every
      {!Trace.stamp} (the ring grew a span lane), is carried in the netfs
      wire message, re-installed server-side, and recorded at lease-break
      delivery — so a cross-client invalidation storm renders as one
      connected trace.  Span 0 means "no span".

   2. Per-directory cache efficacy.  A space-saving top-K heavy-hitters
      sketch (Metwally et al.) over directories, each named by its
      superblock id and its dentry id (dentry ids are unique only within
      one dcache): fixed K slots held in parallel int/string arrays, intrusive (the label is the directory
      dentry's own name string — storing the pointer allocates nothing),
      no allocation at record time.  Each slot attributes hits, misses,
      negative hits, seqcount retries, lease fallbacks and invalidations
      to one directory, with the classic exact-count error bound: a
      slot's [total] overcounts its key by at most [err] (the evicted
      minimum it inherited), and any key not in the sketch has true count
      <= the minimum resident total.  With fewer than K distinct keys no
      eviction happens and every count is exact.

   Global state, like the Trace ring it extends; [reset] between
   experiments. *)

(* --- switches --- *)

let armed = ref false

(* --- request-scoped span ids --- *)

(* Ids are minted in per-domain blocks carved off one global atomic: block
   0 is never handed out, so a real span id is always >= [span_block] and
   0 can mean "no span". *)
let span_block = 1 lsl 20
let next_block = Atomic.make 1

(* Per-domain span state lives in Domain.DLS: on this compiler the DLS
   read ("%dls_get", an intrinsic) is measurably cheaper than a
   [Domain.self] C call, and [current] runs inside every armed ring
   stamp, so the access path is the whole cost.  The record is mutated in
   place — one DLS read per hook, int stores after that. *)
type span_scratch = {
  mutable sp_cur : int;  (* the domain's current span; 0 = none *)
  mutable sp_next : int;  (* next id to mint from the domain's block *)
  mutable sp_limit : int;  (* exclusive end of the block *)
}

let span_key =
  Domain.DLS.new_key (fun () -> { sp_cur = 0; sp_next = 0; sp_limit = 0 })

(* Every domain that ever minted or installed a span, so [reset] can zero
   stale [sp_cur]s from other domains (registration happens at most once
   per domain per reset-cycle, off the hot path). *)
let span_scratches = Atomic.make ([] : span_scratch list)

let rec register_scratch s =
  let seen = Atomic.get span_scratches in
  if List.memq s seen then ()
  else if not (Atomic.compare_and_set span_scratches seen (s :: seen)) then
    register_scratch s

(* Allocate and install a fresh span (returns 0 disarmed).  Armed cost:
   a DLS read and three int stores; the block refill is one atomic
   fetch-and-add every 2^20 spans.  Nothing allocates. *)
let span_enter () =
  if not !armed then 0
  else begin
    let s = Domain.DLS.get span_key in
    if s.sp_next >= s.sp_limit then begin
      let b = Atomic.fetch_and_add next_block 1 in
      s.sp_next <- b * span_block;
      s.sp_limit <- (b + 1) * span_block;
      register_scratch s
    end;
    let id = s.sp_next in
    s.sp_next <- id + 1;
    s.sp_cur <- id;
    id
  end

let[@inline] current () = (Domain.DLS.get span_key).sp_cur
let set_current id = (Domain.DLS.get span_key).sp_cur <- id

(* Run [f] under span [id] (the server side of a wire message), restoring
   the caller's span afterwards.  Allocates a closure — RPC-path only. *)
let with_span id f =
  let s = Domain.DLS.get span_key in
  let saved = s.sp_cur in
  s.sp_cur <- id;
  Fun.protect ~finally:(fun () -> s.sp_cur <- saved) f

(* --- per-directory heavy hitters (space-saving top-K) --- *)

let hh_k = 32

let m_hit = 0
let m_miss = 1
let m_neg = 2
let m_retry = 3
let m_lease = 4
let m_inval = 5
let n_metrics = 6

let metric_names = [| "hit"; "miss"; "neg"; "retry"; "lease"; "inval" |]

(* Parallel slot arrays; [hh_owner] = the directory's superblock id,
   [hh_key] = its dentry id, -1 = empty.
   [hh_label] keeps a pointer to the directory's name string for rendering
   (storing an existing string is one pointer store).  Plain stores: the
   sketch is diagnostic, and concurrent recorders may race a slot exactly
   as ring stamps may tear — consumers tolerate it. *)
let hh_owner = Array.make hh_k 0
let hh_key = Array.make hh_k (-1)
let hh_label = Array.make hh_k ""
let hh_total = Array.make hh_k 0
let hh_err = Array.make hh_k 0
let hh_metrics = Array.make (hh_k * n_metrics) 0
let hh_evictions = ref 0
let hh_recorded = ref 0

(* Top-level recursions, not closures — the record path runs on the
   zero-allocation warm hit. *)
let[@inline] hh_is owner key i =
  Array.unsafe_get hh_key i = key && Array.unsafe_get hh_owner i = owner

let rec hh_find_from owner key i =
  if i >= hh_k then -1
  else if hh_is owner key i then i
  else hh_find_from owner key (i + 1)

let rec hh_free_from i =
  if i >= hh_k then -1
  else if Array.unsafe_get hh_key i < 0 then i
  else hh_free_from (i + 1)

let rec hh_min_from best i =
  if i >= hh_k then best
  else
    hh_min_from
      (if Array.unsafe_get hh_total i < Array.unsafe_get hh_total best then i else best)
      (i + 1)

let[@inline] hh_zero_metrics i =
  let base = i * n_metrics in
  for m = 0 to n_metrics - 1 do
    hh_metrics.(base + m) <- 0
  done

(* Last slot that matched: workloads are skewed, so most records hit the
   directory the previous record hit, and the memo turns the K-slot scan
   into one compare.  Plain (racy) global — it is only ever a hint, and a
   wrong hint just falls back to the scan. *)
let hh_memo = ref 0

(* Record one event of [metric] against directory [owner]/[key]/[label].  Armed:
   one memo compare (falling back to a linear scan of K ints) plus a
   handful of int stores (space-saving eviction replaces the minimum
   slot, inheriting its total as the new key's error bound).  Disarmed:
   a load and a branch.  Never allocates. *)
let hh_record owner key label metric =
  if !armed then begin
    hh_recorded := !hh_recorded + 1;
    let i =
      let m = !hh_memo in
      if hh_is owner key m then m
      else begin
        let i = hh_find_from owner key 0 in
        if i >= 0 then hh_memo := i;
        i
      end
    in
    if i >= 0 then begin
      Array.unsafe_set hh_total i (Array.unsafe_get hh_total i + 1);
      let m = (i * n_metrics) + metric in
      hh_metrics.(m) <- hh_metrics.(m) + 1
    end
    else begin
      let j = hh_free_from 0 in
      if j >= 0 then begin
        hh_owner.(j) <- owner;
        hh_key.(j) <- key;
        hh_label.(j) <- label;
        hh_total.(j) <- 1;
        hh_err.(j) <- 0;
        hh_zero_metrics j;
        hh_metrics.((j * n_metrics) + metric) <- 1
      end
      else begin
        let j = hh_min_from 0 1 in
        hh_evictions := !hh_evictions + 1;
        hh_err.(j) <- hh_total.(j);
        hh_total.(j) <- hh_total.(j) + 1;
        hh_owner.(j) <- owner;
        hh_key.(j) <- key;
        hh_label.(j) <- label;
        hh_zero_metrics j;
        hh_metrics.((j * n_metrics) + metric) <- 1
      end
    end
  end

type hot_slot = {
  h_owner : int;
  h_key : int;
  h_label : string;
  h_total : int;
  h_err : int;
  h_metrics : int array;  (** indexed by [m_hit] … [m_inval] *)
}

(* Snapshot of the resident slots, sorted by total descending (render
   path: allocation is fine here). *)
let hot () =
  let acc = ref [] in
  for i = hh_k - 1 downto 0 do
    if hh_key.(i) >= 0 then
      acc :=
        {
          h_owner = hh_owner.(i);
          h_key = hh_key.(i);
          h_label = hh_label.(i);
          h_total = hh_total.(i);
          h_err = hh_err.(i);
          h_metrics = Array.init n_metrics (fun m -> hh_metrics.((i * n_metrics) + m));
        }
        :: !acc
  done;
  List.sort
    (fun a b -> compare (b.h_total, a.h_owner, a.h_key) (a.h_total, b.h_owner, b.h_key))
    !acc

let hot_to_string () =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "armed %b\n" !armed;
  Printf.bprintf buf "k %d\n" hh_k;
  Printf.bprintf buf "recorded %d\n" !hh_recorded;
  Printf.bprintf buf "evictions %d\n" !hh_evictions;
  List.iter
    (fun s ->
      Printf.bprintf buf "dir %d:%d %s total %d err %d" s.h_owner s.h_key s.h_label s.h_total
        s.h_err;
      Array.iteri
        (fun m v -> Printf.bprintf buf " %s %d" metric_names.(m) v)
        s.h_metrics;
      Buffer.add_char buf '\n')
    (hot ());
  Buffer.contents buf

(* --- arming / reset --- *)

let arm () = armed := true
let disarm () = armed := false

let reset () =
  Array.fill hh_owner 0 hh_k 0;
  Array.fill hh_key 0 hh_k (-1);
  Array.fill hh_label 0 hh_k "";
  Array.fill hh_total 0 hh_k 0;
  Array.fill hh_err 0 hh_k 0;
  Array.fill hh_metrics 0 (hh_k * n_metrics) 0;
  hh_evictions := 0;
  hh_recorded := 0;
  hh_memo := 0;
  (Domain.DLS.get span_key).sp_cur <- 0;
  List.iter (fun s -> s.sp_cur <- 0) (Atomic.get span_scratches)
