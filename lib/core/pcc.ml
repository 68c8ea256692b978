open Dcache_vfs.Types
module Cred = Dcache_cred.Cred
module Trace = Dcache_util.Trace
module Counter = Dcache_util.Stats.Counter
module Counters = Dcache_util.Counters
module Inttbl = Dcache_util.Inttbl

(* Entries pack (dentry id, dentry seq) into one immediate int so that a
   concurrent reader can never observe a half-updated pair.  31 bits of id
   and 31 bits of seq leave the word well inside OCaml's 63-bit ints. *)
let id_bits = 31
let seq_mask = (1 lsl 31) - 1
let pack id seq = ((id land ((1 lsl id_bits) - 1)) lsl 31) lor (seq land seq_mask)
let packed_id e = (e lsr 31) land ((1 lsl id_bits) - 1)
let packed_seq e = e land seq_mask

let ways = 4

type table = {
  slots : int array;  (* 0 = empty *)
  sets : int;
  victims : int array;  (* per-set rotating replacement cursor *)
}

type t = {
  mutable table : table;
  max_entries : int;  (* growth ceiling *)
  mutable displaced : int;  (* replacement-victim evictions in this window *)
  mutable window_start : int;  (* [lookups] when the window opened *)
  mutable grow_count : int;
  grow_lock : Mutex.t;  (* serializes growth: locked inserts and refills *)
  counters : Counter.t;  (* the owning dcache's: stale drops, and [lookups] *)
}

let rec next_pow2 n acc = if acc >= n then acc else next_pow2 n (acc * 2)

let make_table entries =
  let sets = entries / ways in
  { slots = Array.make entries 0; sets; victims = Array.make sets 0 }

(* The paper's 64 KB table, and where a growing table starts. *)
let initial_entries = 4096

let create ~counters ~entries () =
  let max_entries = next_pow2 (Int.max 16 entries) 16 in
  { table = make_table (Int.min max_entries initial_entries); max_entries; displaced = 0;
    window_start = 0; grow_count = 0; grow_lock = Mutex.create (); counters }

let capacity t = Array.length t.table.slots
let grows t = t.grow_count

let set_of table id =
  let h = id * 0x2545F491 in
  (h lxor (h lsr 13)) land (table.sets - 1)

(* The set scan is a top-level recursion: [check] runs (twice, for literal
   and real dentries) on every fastpath probe, and a capturing local [rec]
   would allocate a closure per call.  A hit only reads: the record every
   probe reads is written by inserts and stale drops alone. *)
let rec check_scan t table id seq base i =
  if i >= ways then false
  else begin
    let e = table.slots.(base + i) in
    if e <> 0 && packed_id e = id then begin
      packed_seq e = seq
      || begin
        (* Stale version: the ancestor chain changed.  Drop the entry so
           the paper's directory-reference rule can rely on "most recent
           entry" semantics (§3.2). *)
        table.slots.(base + i) <- 0;
        Counter.bump t.counters Counters.seqcount_retry;
        Trace.stamp Trace.ev_pcc_stale id;
        false
      end
    end
    else check_scan t table id seq base (i + 1)
  end

let check t d =
  let table = t.table in
  let id = d.d_id land ((1 lsl id_bits) - 1) in
  let base = set_of table d.d_id * ways in
  check_scan t table id (d.d_seq land seq_mask) base 0

(* Read-only prefix validation (§3.5): like [check], but without the
   stale-entry drop.  The prefix-resume scan may run on the lockless tier,
   where dropping an entry is a mutation that belongs under the lock.
   Top-level recursion for the usual no-closure reason. *)
let rec probe_scan table id seq base i =
  if i >= ways then false
  else begin
    let e = table.slots.(base + i) in
    if e <> 0 && packed_id e = id then packed_seq e = seq
    else probe_scan table id seq base (i + 1)
  end

let probe t d =
  let table = t.table in
  let id = d.d_id land ((1 lsl id_bits) - 1) in
  probe_scan table id (d.d_seq land seq_mask) (set_of table d.d_id * ways) 0

(* Place [entry] in its set: an empty slot or the id's own, else the set's
   rotating victim.  [true] when a live entry was displaced.  Top-level
   recursion: the lockless refill must not allocate a closure. *)
let rec place table set base id entry i =
  if i >= ways then begin
    let victim = table.victims.(set) land (ways - 1) in
    table.victims.(set) <- table.victims.(set) + 1;
    table.slots.(base + victim) <- entry;
    true
  end
  else begin
    let e = table.slots.(base + i) in
    if e = 0 || packed_id e = id then begin
      table.slots.(base + i) <- entry;
      false
    end
    else place table set base id entry (i + 1)
  end

(* Growth (the paper leaves resizing as future work, §6.3): when capacity
   replacement evicts live entries faster than one per [churn_rate]
   lookups, double the table, up to the ceiling — the working set has
   outgrown it.  The rate is counted over windows of one table's worth of
   the dcache's lookups, read from its per-domain counters only when an
   insert displaces: a hit keeps no tally.  A working set that fits still
   leaves a few sets over-full, and their evictions trickle on for as
   long as it runs: a count without a window would grow the table at
   whatever moment it crossed its line.  A working set that overflows the
   table evicts at several times the rate and grows it within a window or
   two.  A reset of the counters restarts the window.

   Locked inserts and lockless refills both displace, and both may find
   growth due: [grow_lock] serializes the growths, and an inserter that
   finds it held skips (the holder is growing).  The new table is
   published by one pointer store; an entry written to the old one
   meanwhile is lost, a miss and never a false hit.  Each new set draws
   from one old set, so rehashing never displaces. *)
let churn_rate = 32

let lookups t =
  Counter.get t.counters Counters.fastpath_hit + Counter.get t.counters Counters.fastpath_fallback

let grow_due t =
  let cap = Array.length t.table.slots in
  cap < t.max_entries && t.displaced > cap / churn_rate

let maybe_grow t =
  if grow_due t && Mutex.try_lock t.grow_lock then begin
    if grow_due t then begin
      let old = t.table in
      let bigger = make_table (Array.length old.slots * 2) in
      Array.iter
        (fun e ->
          if e <> 0 then begin
            let set = set_of bigger (packed_id e) in
            ignore (place bigger set (set * ways) (packed_id e) e 0)
          end)
        old.slots;
      t.table <- bigger;
      t.displaced <- 0;
      t.window_start <- lookups t;
      t.grow_count <- t.grow_count + 1
    end;
    Mutex.unlock t.grow_lock
  end

(* A lockless insert (the fastpath's refill) runs beside locked inserts,
   stale drops and growth swaps: it may lose its entry, but one word store
   of a packed (id, seq) pair can never make a false hit. *)
let insert t d ~seq =
  Trace.stamp Trace.ev_pcc_insert d.d_id;
  let table = t.table in
  let id = d.d_id land ((1 lsl id_bits) - 1) in
  let set = set_of table d.d_id in
  if place table set (set * ways) id (pack id seq) 0 then begin
    let now = lookups t in
    if now < t.window_start || now - t.window_start >= Array.length table.slots then begin
      t.window_start <- now;
      t.displaced <- 0
    end;
    t.displaced <- t.displaced + 1;
    maybe_grow t
  end

(* --- per-credential storage (§4.1) --- *)

type Cred.slot += Pcc_slot of t Inttbl.t

(* [of_cred] runs on every fastpath lookup, so the warm path must not
   allocate: the slot list is scanned by a top-level matcher (no closure, no
   [Some] wrapper) and the per-namespace table is probed with [Inttbl.find]
   plus an exception branch rather than [find_opt].  Only the first lookup by
   a fresh credential (attach slot, create cache) allocates. *)
let rec slot_table = function
  | [] -> raise Not_found
  | Pcc_slot tbl :: _ -> tbl
  | _ :: rest -> slot_table rest

(* Non-creating variant for the lockless fastpath: creation mutates the
   credential's slot list and the per-cred table, which only the locked
   paths may do.  Raises [Not_found] (caught by the probe, which retries
   under the read lock) instead of boxing an option, so the warm lockless
   hit stays allocation-free.  Racing a concurrent creator under the write
   lock is safe: [Cred.add_slot] publishes an immutable cons and a table
   lookup that loses the race merely misses. *)
let of_cred_exn cred ns = Inttbl.find (slot_table (Cred.slots cred)) ns.ns_id

let of_cred cred ns ~counters ~entries =
  let table =
    match slot_table (Cred.slots cred) with
    | tbl -> tbl
    | exception Not_found ->
      let tbl = Inttbl.create 4 in
      Cred.add_slot cred (Pcc_slot tbl);
      tbl
  in
  match Inttbl.find table ns.ns_id with
  | pcc -> pcc
  | exception Not_found ->
    let pcc = create ~counters ~entries () in
    Inttbl.add table ns.ns_id pcc;
    pcc
