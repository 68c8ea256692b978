(* Per-directory cache efficacy (§3.8): a space-saving top-K heavy-hitters
   sketch (Metwally et al.) over one kernel's directories, each named by
   its dentry id (unique within a dcache, which creates the sketch).
   Fixed K slots held in parallel int/string arrays, intrusive (the label
   is the directory dentry's own name string — storing the pointer
   allocates nothing), no allocation at record time.  Each slot
   attributes hits, misses, negative hits, seqcount retries, lease
   fallbacks and invalidations to one directory, with the classic
   exact-count error bound: a slot's [total] overcounts its key by at
   most [err] (the evicted minimum it inherited), and any key not in the
   sketch has true count <= the minimum resident total.  With fewer than
   K distinct keys no eviction happens and every count is exact.

   Recording is armed by [Trace.armed]: disarmed, a record is a
   load-and-branch; armed, plain int/pointer stores — zero minor-heap
   words, so the sketch can stay armed across a zero-allocation fastpath
   run.  Stores are plain: concurrent recorders may race a slot exactly
   as ring stamps may tear, and consumers tolerate it. *)

let hh_k = 32

let m_hit = 0
let m_miss = 1
let m_neg = 2
let m_retry = 3
let m_lease = 4
let m_inval = 5
let n_metrics = 6

let metric_names = [| "hit"; "miss"; "neg"; "retry"; "lease"; "inval" |]

(* [key] = the directory's dentry id, -1 = empty slot.  [memo] is the
   last slot that matched: workloads are skewed, so most records hit the
   directory the previous record hit, and the memo turns the K-slot scan
   into one compare.  It is only ever a hint — a stale one falls back to
   the scan. *)
type t = {
  key : int array;
  label : string array;
  total : int array;
  err : int array;
  metrics : int array;  (* slot-major, [n_metrics] per slot *)
  mutable evictions : int;
  mutable recorded : int;
  mutable memo : int;
}

let create () =
  {
    key = Array.make hh_k (-1);
    label = Array.make hh_k "";
    total = Array.make hh_k 0;
    err = Array.make hh_k 0;
    metrics = Array.make (hh_k * n_metrics) 0;
    evictions = 0;
    recorded = 0;
    memo = 0;
  }

(* Top-level recursions, not closures — the record path runs on the
   zero-allocation warm hit. *)
let rec find_from t key i =
  if i >= hh_k then -1
  else if Array.unsafe_get t.key i = key then i
  else find_from t key (i + 1)

let rec min_from t best i =
  if i >= hh_k then best
  else
    min_from t
      (if Array.unsafe_get t.total i < Array.unsafe_get t.total best then i else best)
      (i + 1)

(* A fresh key takes slot [j] with [err] as its overcount bound. *)
let claim t j key label metric err =
  t.key.(j) <- key;
  t.label.(j) <- label;
  t.err.(j) <- err;
  t.total.(j) <- err + 1;
  Array.fill t.metrics (j * n_metrics) n_metrics 0;
  t.metrics.((j * n_metrics) + metric) <- 1

(* Armed: one memo compare (falling back to a scan of K ints) plus a
   handful of int stores; an unmonitored key takes a free slot, else
   evicts the minimum and inherits its total as its error bound. *)
let record t key label metric =
  if !Trace.armed then begin
    t.recorded <- t.recorded + 1;
    let i =
      if Array.unsafe_get t.key t.memo = key then t.memo
      else begin
        let i = find_from t key 0 in
        if i >= 0 then t.memo <- i;
        i
      end
    in
    if i >= 0 then begin
      Array.unsafe_set t.total i (Array.unsafe_get t.total i + 1);
      let m = (i * n_metrics) + metric in
      t.metrics.(m) <- t.metrics.(m) + 1
    end
    else begin
      let j = find_from t (-1) 0 in
      if j >= 0 then claim t j key label metric 0
      else begin
        let j = min_from t 0 1 in
        t.evictions <- t.evictions + 1;
        claim t j key label metric t.total.(j)
      end
    end
  end

type hot_slot = {
  h_key : int;
  h_label : string;
  h_total : int;
  h_err : int;
  h_metrics : int array;
}

(* Render path: allocation is fine here. *)
let hot t =
  List.init hh_k Fun.id
  |> List.filter (fun i -> t.key.(i) >= 0)
  |> List.map (fun i ->
         {
           h_key = t.key.(i);
           h_label = t.label.(i);
           h_total = t.total.(i);
           h_err = t.err.(i);
           h_metrics = Array.sub t.metrics (i * n_metrics) n_metrics;
         })
  |> List.sort (fun a b ->
         match Int.compare b.h_total a.h_total with 0 -> Int.compare a.h_key b.h_key | c -> c)

let to_string t =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "armed %b\n" !Trace.armed;
  Printf.bprintf buf "k %d\n" hh_k;
  Printf.bprintf buf "recorded %d\n" t.recorded;
  Printf.bprintf buf "evictions %d\n" t.evictions;
  List.iter
    (fun s ->
      Printf.bprintf buf "dir %d %s total %d err %d" s.h_key s.h_label s.h_total s.h_err;
      Array.iteri (fun m v -> Printf.bprintf buf " %s %d" metric_names.(m) v) s.h_metrics;
      Buffer.add_char buf '\n')
    (hot t);
  Buffer.contents buf

let reset t =
  Array.fill t.key 0 hh_k (-1);
  Array.fill t.label 0 hh_k "";
  Array.fill t.total 0 hh_k 0;
  Array.fill t.err 0 hh_k 0;
  Array.fill t.metrics 0 (hh_k * n_metrics) 0;
  t.evictions <- 0;
  t.recorded <- 0;
  t.memo <- 0
