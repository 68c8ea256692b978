(* All arithmetic is on native (63-bit, untagged) ints: multiplication wraps
   modulo 2^63, which preserves the multilinear construction's universality
   for our purposes while keeping the per-byte loop allocation-free. *)

type t = { a : int; b : int; c : int; d : int }

type key = {
  seed : int;
  sig_bits : int;
  (* Per-lane compare masks over the first [sig_bits] of the signature
     layout (see [equal]). *)
  mask_a : int;
  mask_b : int;
  mask_c : int;
  mask_d : int;
  (* Per-position key material, lanes interleaved: lane [l] of position
     [p] is entry [lanes * p + l], so one position's four keys share a
     cache line and one base register.  [fins] holds the finalization
     (per-length) keys the same way.  Each entry is a pure function of
     (seed, lane, pos); growth publishes a fully built bigger array, so a
     domain still holding the old one reads the same values — which is
     why readers bound their unchecked loads by the length of the array
     they hold, never by a separately stored capacity. *)
  mutable keys : int array;
  mutable fins : int array;
}

type state = { pos : int; l0 : int; l1 : int; l2 : int; l3 : int }

let lanes = 4
let initial_capacity = 512
let bucket_bits = 16

(* The bucket index is wider than the 16 bits excluded from signature
   comparison: a growing DLHT can reach 2^22 buckets, and a
   16-bit index would stop spreading past 2^16 (chains grow with the table
   while half the buckets stay empty).  Bits 16..21 serve both as index and
   compared-signature bits, which is harmless — bucket placement is derived
   from the signature, never a substitute for comparing it. *)
let bucket_index_mask = (1 lsl 22) - 1
let max_sig_bits = 47 + (3 * 63)

let fmix z =
  let z = (z lxor (z lsr 30)) * 0x1F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  z lxor (z lsr 31)

let key_material seed lane pos =
  fmix (seed + (lane * 0x224BAED4963EE407) + ((pos + 1) * 0x1E3779B97F4A7C15))

(* Keys for positions [0, cap), lanes interleaved; [first_lane] is 0 for
   the feed keys and [lanes] for the finalization keys. *)
let build_table seed ~first_lane cap =
  Array.init (lanes * cap) (fun k -> key_material seed (first_lane + (k mod lanes)) (k / lanes))

let rec capacity_for cap pos = if cap > pos then cap else capacity_for (cap * 2) pos

let grow key ~first_lane table pos =
  let bigger = build_table key.seed ~first_lane (capacity_for (Array.length table / lanes) pos) in
  if first_lane = 0 then key.keys <- bigger else key.fins <- bigger;
  bigger

(* A feed-key table that covers position [pos]: the one [key] holds, or a
   bigger one built and published.  The caller reads that array only. *)
let[@inline] feed_keys key pos =
  let kt = key.keys in
  if lanes * pos < Array.length kt then kt else grow key ~first_lane:0 kt pos

let[@inline] fin_keys key pos =
  let kf = key.fins in
  if lanes * pos < Array.length kf then kf else grow key ~first_lane:lanes kf pos

(* The signature is laid out as: lane [a] bits 16..62 (47 bits), then lanes
   [b], [c], [d] (63 bits each).  [equal] compares the first [sig_bits] of
   that string, so a truncated key widens collision odds for tests while
   production keys compare everything.  The lane masks are computed once
   here; a compare is then one xor-and-mask test per lane. *)
let lane_mask sig_bits ~consumed ~width =
  let take = Int.min width (Int.max 0 (sig_bits - consumed)) in
  if take >= 63 then -1 else (1 lsl take) - 1

let create_key ?(sig_bits = max_sig_bits) ~seed () =
  let sig_bits = Int.max 1 (Int.min max_sig_bits sig_bits) in
  let seed = fmix seed in
  {
    seed;
    sig_bits;
    mask_a = lane_mask sig_bits ~consumed:0 ~width:47 lsl bucket_bits;
    mask_b = lane_mask sig_bits ~consumed:47 ~width:63;
    mask_c = lane_mask sig_bits ~consumed:110 ~width:63;
    mask_d = lane_mask sig_bits ~consumed:173 ~width:63;
    keys = build_table seed ~first_lane:0 initial_capacity;
    fins = build_table seed ~first_lane:lanes initial_capacity;
  }

let sig_bits key = key.sig_bits
let empty_state = { pos = 0; l0 = 0; l1 = 0; l2 = 0; l3 = 0 }

let feed_string key state s =
  let len = String.length s in
  if len = 0 then state
  else begin
    let base = state.pos in
    let kt = feed_keys key (base + len - 1) in
    let l0 = ref state.l0 and l1 = ref state.l1 and l2 = ref state.l2 and l3 = ref state.l3 in
    for i = 0 to len - 1 do
      let byte = Char.code (String.unsafe_get s i) + 1 in
      let k = lanes * (base + i) in
      l0 := !l0 + (Array.unsafe_get kt k * byte);
      l1 := !l1 + (Array.unsafe_get kt (k + 1) * byte);
      l2 := !l2 + (Array.unsafe_get kt (k + 2) * byte);
      l3 := !l3 + (Array.unsafe_get kt (k + 3) * byte)
    done;
    { pos = base + len; l0 = !l0; l1 = !l1; l2 = !l2; l3 = !l3 }
  end

let feed_char key state ch =
  let pos = state.pos in
  let kt = feed_keys key pos in
  let byte = Char.code ch + 1 and k = lanes * pos in
  {
    pos = pos + 1;
    l0 = state.l0 + (Array.unsafe_get kt k * byte);
    l1 = state.l1 + (Array.unsafe_get kt (k + 1) * byte);
    l2 = state.l2 + (Array.unsafe_get kt (k + 2) * byte);
    l3 = state.l3 + (Array.unsafe_get kt (k + 3) * byte);
  }

let finalize key state =
  (* The per-length key term guarantees avalanche in the bucket bits even
     for empty or one-byte paths. *)
  let pos = state.pos in
  let kf = fin_keys key pos and k = lanes * pos in
  {
    a = fmix (state.l0 + Array.unsafe_get kf k);
    b = fmix (state.l1 + Array.unsafe_get kf (k + 1));
    c = fmix (state.l2 + Array.unsafe_get kf (k + 2));
    d = fmix (state.l3 + Array.unsafe_get kf (k + 3));
  }

let hash_string key s = finalize key (feed_string key empty_state s)
let bucket t = t.a land bucket_index_mask

let[@inline] equal_lanes key xa xb xc xd y =
  (xa lxor y.a) land key.mask_a = 0
  && (xb lxor y.b) land key.mask_b = 0
  && (xc lxor y.c) land key.mask_c = 0
  && (xd lxor y.d) land key.mask_d = 0

let equal key x y = equal_lanes key x.a x.b x.c x.d y

(* --- in-place (allocation-free) hashing --------------------------------

   The pure [state]/[t] API above allocates a fresh record per feed and per
   finalize; fine for the slowpath and for states cached on dentries, but a
   warm fastpath probe must not pay a GC tax.  The mutable mirror below
   threads one preallocated [mstate] (the running multilinear state) and one
   [buf] (the finalized digest) through the whole probe, so a warm hit
   performs zero minor-heap allocation. *)

type mstate = {
  mutable mpos : int;
  mutable m0 : int;
  mutable m1 : int;
  mutable m2 : int;
  mutable m3 : int;
}

let mstate () = { mpos = 0; m0 = 0; m1 = 0; m2 = 0; m3 = 0 }

let mstate_reset ms =
  ms.mpos <- 0;
  ms.m0 <- 0;
  ms.m1 <- 0;
  ms.m2 <- 0;
  ms.m3 <- 0

let mstate_resume ms (s : state) =
  ms.mpos <- s.pos;
  ms.m0 <- s.l0;
  ms.m1 <- s.l1;
  ms.m2 <- s.l2;
  ms.m3 <- s.l3

(* [hash_path_into_rec], the in-place scanner over a raw path string,
   feeds ['/' ^ name] for every real component, skipping empty ones
   (leading, doubled and trailing slashes) and ["."] — exactly the
   canonicalization the slowpath walk applies to [Path.split] output,
   without materializing the list.

   Returns [scan_done] when the path is exhausted, [scan_toolong] when a
   component exceeds [max_name], or the cursor just past a [".."] component
   so the caller can run its dot-dot semantics and resume with [~pos]. *)

let scan_done = -1
let scan_toolong = -2

(* Cursor movement is tail recursion over int arguments: no refs, no
   closures (no flambda to unbox them). *)
let rec skip_slashes s len i =
  if i < len && String.unsafe_get s i = '/' then skip_slashes s len (i + 1) else i

let rec component_end s len j =
  if j < len && String.unsafe_get s j <> '/' then component_end s len (j + 1) else j

(* --- component-boundary snapshots (prefix-resumed slowpath) -------------

   A probe that may miss wants to know, afterwards, what the running state
   was at every component boundary it hashed: the longest cached ancestor
   of a missing path is found by re-finalizing those intermediate states
   and probing the table deepest-first.  [snaps] is a preallocated flat
   store — recording one boundary is six unchecked int stores — so the warm
   path can record unconditionally and stay allocation-free.  Lane values
   are stored raw (pos, l0..l3), not finalized: finalization is deferred to
   the rare miss, and only for the slots actually probed. *)

type snaps = {
  snap_cap : int;
  snap_cursors : int array;  (* byte offset in the raw path just past component i *)
  snap_states : int array;  (* [snap_words] ints per boundary: pos, l0..l3 *)
  mutable snap_n : int;
  mutable snap_overflowed : bool;
  (* non-empty components scanned since the reset, "." and ".." included *)
  mutable snap_comps : int;
}

let snap_words = 5

let snaps ~slots =
  let cap = if slots < 1 then 1 else slots in
  {
    snap_cap = cap;
    snap_cursors = Array.make cap 0;
    snap_states = Array.make (cap * snap_words) 0;
    snap_n = 0;
    snap_overflowed = false;
    snap_comps = 0;
  }

let snaps_reset sn =
  sn.snap_n <- 0;
  sn.snap_overflowed <- false;
  sn.snap_comps <- 0

let snaps_count sn = sn.snap_n
let snaps_overflowed sn = sn.snap_overflowed
let snaps_components sn = sn.snap_comps
let snaps_cursor sn i = sn.snap_cursors.(i)

(* Overflow (more components than slots) simply stops recording: every slot
   already stored is still a valid prefix state, so callers may keep using
   them — they just cannot resume deeper than the capacity. *)
let[@inline] record_snap sn ms cursor =
  if sn.snap_n >= sn.snap_cap then sn.snap_overflowed <- true
  else begin
    let base = sn.snap_n * snap_words in
    let st = sn.snap_states in
    Array.unsafe_set sn.snap_cursors sn.snap_n cursor;
    Array.unsafe_set st base ms.mpos;
    Array.unsafe_set st (base + 1) ms.m0;
    Array.unsafe_set st (base + 2) ms.m1;
    Array.unsafe_set st (base + 3) ms.m2;
    Array.unsafe_set st (base + 4) ms.m3;
    sn.snap_n <- sn.snap_n + 1
  end

(* The fused byte loop: feed the component's bytes from [j] up to the
   next ['/'] or the end, with the four lane sums and the key index [k] held
   in arguments (registers: ten fit on amd64), so each byte is read once
   and costs four loads from [kt] and four multiply-adds — no field traffic.
   The lanes go back to [ms] once, at the component's end, which is the
   return value.  [kt] must cover every position the loop can reach. *)
let rec feed_name kt s len j k l0 l1 l2 l3 ms =
  let ch = if j < len then String.unsafe_get s j else '/' in
  if ch <> '/' then begin
    let byte = Char.code ch + 1 in
    feed_name kt s len (j + 1) (k + lanes)
      (l0 + (Array.unsafe_get kt k * byte))
      (l1 + (Array.unsafe_get kt (k + 1) * byte))
      (l2 + (Array.unsafe_get kt (k + 2) * byte))
      (l3 + (Array.unsafe_get kt (k + 3) * byte))
      ms
  end
  else begin
    ms.mpos <- k / lanes;
    ms.m0 <- l0;
    ms.m1 <- l1;
    ms.m2 <- l2;
    ms.m3 <- l3;
    j
  end

let slash_byte = Char.code '/' + 1

(* The scanner described above: a boundary snapshot after every fed
   component, and a count of every non-empty component it passes.  A
   component is scanned once, by the loop that feeds it; ["."] and [".."]
   are told apart on their first bytes before any feeding. *)
let rec hash_path_into_rec key ms sn ~max_name s ~pos =
  let len = String.length s in
  let i = skip_slashes s len pos in
  if i >= len then scan_done
  else begin
    sn.snap_comps <- sn.snap_comps + 1;
    let dot = String.unsafe_get s i = '.' in
    if dot && (i + 1 = len || String.unsafe_get s (i + 1) = '/') then
      hash_path_into_rec key ms sn ~max_name s ~pos:(i + 1)
    else if
      dot
      && String.unsafe_get s (i + 1) = '.'
      && (i + 2 = len || String.unsafe_get s (i + 2) = '/')
    then i + 2
    else begin
      (* The ['/'] term sits at position [p]; the name, at most the rest of
         the path, ends by position [p + len - i]. *)
      let p = ms.mpos in
      let kt = feed_keys key (p + len - i) in
      let k = lanes * p in
      let j =
        feed_name kt s len i (k + lanes)
          (ms.m0 + (Array.unsafe_get kt k * slash_byte))
          (ms.m1 + (Array.unsafe_get kt (k + 1) * slash_byte))
          (ms.m2 + (Array.unsafe_get kt (k + 2) * slash_byte))
          (ms.m3 + (Array.unsafe_get kt (k + 3) * slash_byte))
          ms
      in
      if j - i > max_name then scan_toolong
      else begin
        record_snap sn ms j;
        hash_path_into_rec key ms sn ~max_name s ~pos:j
      end
    end
  end

(* Lexical [".."] (Plan 9 semantics, §4.2) cancels the last fed component
   in place: forget its boundary and rewind [ms] to the boundary below.
   [false] when none is left — the caller then rewinds to the state it
   started feeding from.  Int stores only; the store never overflows for a
   validated path, so the last slot is the last fed component. *)
let snaps_pop sn ms =
  sn.snap_n <- sn.snap_n - 1;
  let i = sn.snap_n - 1 in
  if i < 0 then false
  else begin
    let base = i * snap_words and st = sn.snap_states in
    ms.mpos <- st.(base);
    ms.m0 <- st.(base + 1);
    ms.m1 <- st.(base + 2);
    ms.m2 <- st.(base + 3);
    ms.m3 <- st.(base + 4);
    true
  end

type buf = { mutable ba : int; mutable bb : int; mutable bc : int; mutable bd : int }

let buf () = { ba = 0; bb = 0; bc = 0; bd = 0 }

let finalize_into key ms b =
  let pos = ms.mpos in
  let kf = fin_keys key pos and k = lanes * pos in
  b.ba <- fmix (ms.m0 + Array.unsafe_get kf k);
  b.bb <- fmix (ms.m1 + Array.unsafe_get kf (k + 1));
  b.bc <- fmix (ms.m2 + Array.unsafe_get kf (k + 2));
  b.bd <- fmix (ms.m3 + Array.unsafe_get kf (k + 3))

(* Finalize the recorded boundary state in slot [i] into [b] — the
   non-allocating counterpart of [finalize] for snapshot lanes, used by the
   deepest-first ancestor scan on a miss. *)
let finalize_snap_into key sn i b =
  let base = i * snap_words in
  let st = sn.snap_states in
  let pos = st.(base) in
  let kf = fin_keys key pos and k = lanes * pos in
  b.ba <- fmix (st.(base + 1) + Array.unsafe_get kf k);
  b.bb <- fmix (st.(base + 2) + Array.unsafe_get kf (k + 1));
  b.bc <- fmix (st.(base + 3) + Array.unsafe_get kf (k + 2));
  b.bd <- fmix (st.(base + 4) + Array.unsafe_get kf (k + 3))

let buf_bucket b = b.ba land bucket_index_mask
let equal_buf key b y = equal_lanes key b.ba b.bb b.bc b.bd y
let of_buf b = { a = b.ba; b = b.bb; c = b.bc; d = b.bd }

let of_lanes ~a ~b ~c ~d = { a; b; c; d }
let to_hex t = Printf.sprintf "%016x%016x%016x%016x" t.a t.b t.c t.d

let compare_full x y =
  match Int.compare x.a y.a with
  | 0 -> (
    match Int.compare x.b y.b with
    | 0 -> ( match Int.compare x.c y.c with 0 -> Int.compare x.d y.d | r -> r)
    | r -> r)
  | r -> r
