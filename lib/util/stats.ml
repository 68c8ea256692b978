let sorted_copy samples =
  let copy = Array.copy samples in
  (* [Float.compare], not polymorphic [compare]: every percentile/median in
     every benchmark report sorts through here, and the polymorphic version
     dispatches on the runtime representation per element. *)
  Array.sort Float.compare copy;
  copy

let median samples =
  let s = sorted_copy samples in
  let n = Array.length s in
  assert (n > 0);
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* Nearest-rank percentile.  p = 0 is defined as the minimum (the ceil
   formula would give rank 0, and clamping that to index 0 only happens to
   be right — make it explicit); p = 100 lands on rank n = the maximum.
   The [min] guard protects against float rounding pushing the rank past n
   for p just under 100. *)
let percentile samples p =
  if not (p >= 0.0 && p <= 100.0) then
    invalid_arg "Stats.percentile: p outside [0, 100]";
  let s = sorted_copy samples in
  let n = Array.length s in
  assert (n > 0);
  if p = 0.0 then s.(0)
  else begin
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    s.(Stdlib.min (n - 1) (rank - 1))
  end

(* --- GC-aware measurement (words of minor-heap allocation per op) ---

   [Gc.minor_words] counts every word ever allocated in the minor heap
   (including values later promoted), so a delta across a loop divided by
   the iteration count is the average allocation cost of one operation —
   the number the fastpath's memory discipline drives to zero. *)

let minor_words_per_op ~iters f =
  assert (iters > 0);
  f ();
  (* warm: first call may build caches/scratch *)
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    f ()
  done;
  let w1 = Gc.minor_words () in
  (w1 -. w0) /. float_of_int iters

(* --- log2-bucketed integer histograms (HDR-style) ---

   Fixed-size int arrays so [record] is a handful of stores and compares —
   no allocation, ever — which lets the tracing layer keep latency
   histograms armed on the fastpath without breaking the zero-allocation
   discipline.  Bucket 0 holds value 0 (and clamped negatives); bucket i>0
   holds [2^(i-1), 2^i).  63-bit ints need at most bucket 62, so 64 buckets
   cover every value with no range check on the hot path. *)

module Lhist = struct
  let nbuckets = 64

  type t = {
    counts : int array;
    mutable n : int;
    mutable sum : int;
    mutable vmin : int;
    mutable vmax : int;
  }

  let create () =
    { counts = Array.make nbuckets 0; n = 0; sum = 0; vmin = max_int; vmax = min_int }

  let reset t =
    Array.fill t.counts 0 nbuckets 0;
    t.n <- 0;
    t.sum <- 0;
    t.vmin <- max_int;
    t.vmax <- min_int

  (* Top-level recursion, not a loop over a ref: the shift count is the
     floor log2, and tail calls over ints allocate nothing. *)
  let rec log2_floor v acc = if v <= 1 then acc else log2_floor (v lsr 1) (acc + 1)

  let bucket_of v = if v <= 0 then 0 else 1 + log2_floor v 0
  let bucket_lo i = if i <= 0 then 0 else 1 lsl (i - 1)

  let record t v =
    let v = if v < 0 then 0 else v in
    let b = bucket_of v in
    t.counts.(b) <- t.counts.(b) + 1;
    t.n <- t.n + 1;
    t.sum <- t.sum + v;
    if v < t.vmin then t.vmin <- v;
    if v > t.vmax then t.vmax <- v

  let count t = t.n
  let sum t = t.sum

  let add into h =
    Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) h.counts;
    into.n <- into.n + h.n;
    into.sum <- into.sum + h.sum;
    into.vmin <- Int.min into.vmin h.vmin;
    into.vmax <- Int.max into.vmax h.vmax
  let bucket_count t i = t.counts.(i)
  let min_value t = if t.n = 0 then 0 else t.vmin
  let max_value t = if t.n = 0 then 0 else t.vmax
  let mean t = if t.n = 0 then 0.0 else float_of_int t.sum /. float_of_int t.n

  (* Nearest-rank over the buckets: find the bucket holding the rank'th
     sample and report its midpoint, clamped into the exact [vmin, vmax]
     envelope so a one-bucket histogram reports exact figures. *)
  let percentile t p =
    if not (p >= 0.0 && p <= 100.0) then
      invalid_arg "Stats.Lhist.percentile: p outside [0, 100]";
    if t.n = 0 then 0
    else if p = 0.0 then t.vmin
    else if p = 100.0 then t.vmax
    else begin
      let rank = int_of_float (ceil (p /. 100.0 *. float_of_int t.n)) in
      let rec go i cum =
        if i >= nbuckets then t.vmax
        else begin
          let cum = cum + t.counts.(i) in
          if cum >= rank then begin
            let lo = bucket_lo i in
            let mid = if i = 0 then 0 else lo + (lo / 2) in
            Stdlib.max t.vmin (Stdlib.min t.vmax mid)
          end
          else go (i + 1) cum
        end
      in
      go 0 0
    end

  let to_string t =
    Printf.sprintf "n %d min %d p50 %d p90 %d p99 %d max %d mean %.1f"
      t.n (min_value t) (percentile t 50.0) (percentile t 90.0)
      (percentile t 99.0) (max_value t) (mean t)
end

module Counter = struct
  (* One fixed table per dcache.  Every counter is declared once, at
     module initialisation (see [Counters]), and its id indexes the table.
     Each counter has one atomic slot per [domain id mod slots], laid out
     slot-major so a domain's slots sit apart from the other domains':
     a bump is one uncontended fetch-and-add on (usually) the caller's own
     slot, concurrent domains never lose counts — the slot is atomic even
     when two domain ids collide on it — and a single-domain test still
     reads exact figures.  A bump allocates nothing, so it is legal inside
     the zero-allocation warm fastpath. *)

  let slots = 8
  let slot_mask = slots - 1

  type id = int
  type t = int Atomic.t array

  let names = ref [||]

  (* A table is sized when it is created: an id declared later would land
     in the next domain's row. *)
  let frozen = ref false

  let declare name =
    if !frozen then invalid_arg ("Stats.Counter.declare: a table already exists: " ^ name);
    if Array.mem name !names then invalid_arg ("Stats.Counter.declare: duplicate " ^ name);
    names := Array.append !names [| name |];
    Array.length !names - 1

  let name id = !names.(id)

  let create () : t =
    frozen := true;
    Array.init (slots * Array.length !names) (fun _ -> Atomic.make 0)

  (* Slot [s] of counter [id] lives at [s * n + id], [n] the declared
     count. *)
  let[@inline] mine (t : t) id =
    t.(((Domain.self () :> int) land slot_mask) * (Array.length t / slots) + id)

  let[@inline] bump t id = Atomic.incr (mine t id)
  let[@inline] add t id n = ignore (Atomic.fetch_and_add (mine t id) n)

  let get (t : t) id =
    let n = Array.length t / slots in
    let sum = ref 0 in
    for s = 0 to slots - 1 do
      sum := !sum + Atomic.get t.((s * n) + id)
    done;
    !sum

  let reset (t : t) = Array.iter (fun a -> Atomic.set a 0) t

  let to_assoc t =
    List.init (Array.length !names) (fun id -> (name id, get t id))
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
end
