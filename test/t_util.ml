(* Tests for dcache_util: PRNG, intrusive lists, stats, locks, clocks. *)

open Dcache_util

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next64 a) (Prng.next64 b)
  done

let test_prng_bounds () =
  let g = Prng.create 7 in
  for _ = 1 to 10_000 do
    let x = Prng.int g 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done;
  for _ = 1 to 1_000 do
    let x = Prng.int_in g (-5) 5 in
    Alcotest.(check bool) "in closed range" true (x >= -5 && x <= 5);
    let f = Prng.float g 2.0 in
    Alcotest.(check bool) "float range" true (f >= 0.0 && f < 2.0)
  done

let test_prng_string () =
  let g = Prng.create 3 in
  for _ = 1 to 200 do
    let s = Prng.string g ~min_len:2 ~max_len:9 in
    Alcotest.(check bool) "len" true (String.length s >= 2 && String.length s <= 9)
  done

let test_prng_split_independent () =
  let g = Prng.create 99 in
  let h = Prng.split g in
  let a = Prng.next64 g and b = Prng.next64 h in
  Alcotest.(check bool) "diverge" true (a <> b)

let test_prng_shuffle_permutation () =
  let g = Prng.create 5 in
  let arr = Array.init 50 (fun i -> i) in
  Prng.shuffle g arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_dlist_push_pop () =
  let l = Dlist.create () in
  let n1 = Dlist.node 1 and n2 = Dlist.node 2 and n3 = Dlist.node 3 in
  Dlist.push_back l n1;
  Dlist.push_back l n2;
  Dlist.push_front l n3;
  Alcotest.(check (list int)) "order" [ 3; 1; 2 ] (Dlist.to_list l);
  Alcotest.(check int) "length" 3 (Dlist.length l);
  (match Dlist.pop_front l with
  | Some n -> Alcotest.(check int) "front" 3 (Dlist.value n)
  | None -> Alcotest.fail "empty");
  (match Dlist.pop_back l with
  | Some n -> Alcotest.(check int) "back" 2 (Dlist.value n)
  | None -> Alcotest.fail "empty");
  Alcotest.(check int) "length after" 1 (Dlist.length l)

let test_dlist_remove_middle () =
  let l = Dlist.create () in
  let nodes = List.init 5 Dlist.node in
  List.iter (Dlist.push_back l) nodes;
  Dlist.remove l (List.nth nodes 2);
  Alcotest.(check (list int)) "removed middle" [ 0; 1; 3; 4 ] (Dlist.to_list l);
  Alcotest.(check bool) "unlinked" false (Dlist.linked (List.nth nodes 2));
  (* removing a detached node is a no-op *)
  Dlist.remove l (List.nth nodes 2);
  Alcotest.(check int) "len" 4 (Dlist.length l)

let test_dlist_iter_remove_current () =
  let l = Dlist.create () in
  let nodes = List.init 6 Dlist.node in
  List.iter (Dlist.push_back l) nodes;
  (* Remove even values while iterating. *)
  Dlist.iter (fun v -> if v mod 2 = 0 then Dlist.remove l (List.nth nodes v)) l;
  Alcotest.(check (list int)) "odds left" [ 1; 3; 5 ] (Dlist.to_list l)

let dlist_model_test =
  QCheck.Test.make ~name:"dlist behaves like a deque model" ~count:300
    QCheck.(list (pair bool small_nat))
    (fun ops ->
      let l = Dlist.create () in
      let model = ref [] in
      List.iter
        (fun (front, v) ->
          let n = Dlist.node v in
          if front then begin
            Dlist.push_front l n;
            model := v :: !model
          end
          else begin
            Dlist.push_back l n;
            model := !model @ [ v ]
          end)
        ops;
      Dlist.to_list l = !model && Dlist.length l = List.length !model)

let test_stats_median_percentile () =
  Alcotest.(check (float 1e-9)) "odd median" 3.0 (Stats.median [| 5.0; 1.0; 3.0 |]);
  Alcotest.(check (float 1e-9)) "even median" 2.5 (Stats.median [| 4.0; 1.0; 2.0; 3.0 |]);
  let samples = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Stats.percentile samples 50.0);
  Alcotest.(check (float 1e-9)) "p99" 99.0 (Stats.percentile samples 99.0);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Stats.percentile samples 100.0)

let test_stats_percentile_edges () =
  let samples = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p0 is the minimum" 1.0 (Stats.percentile samples 0.0);
  Alcotest.(check (float 1e-9)) "p100 is the maximum" 100.0 (Stats.percentile samples 100.0);
  Alcotest.(check (float 1e-9)) "singleton p0" 7.0 (Stats.percentile [| 7.0 |] 0.0);
  Alcotest.(check (float 1e-9)) "singleton p100" 7.0 (Stats.percentile [| 7.0 |] 100.0);
  Alcotest.(check (float 1e-9)) "tiny p still reports the minimum" 1.0
    (Stats.percentile samples 0.5);
  let out_of_range = Invalid_argument "Stats.percentile: p outside [0, 100]" in
  Alcotest.check_raises "p < 0 rejected" out_of_range (fun () ->
      ignore (Stats.percentile samples (-1.0)));
  Alcotest.check_raises "p > 100 rejected" out_of_range (fun () ->
      ignore (Stats.percentile samples 100.1))

let test_lhist_basic () =
  let h = Stats.Lhist.create () in
  Alcotest.(check int) "empty count" 0 (Stats.Lhist.count h);
  Alcotest.(check int) "empty percentile" 0 (Stats.Lhist.percentile h 99.0);
  for v = 1 to 1000 do
    Stats.Lhist.record h v
  done;
  Alcotest.(check int) "count" 1000 (Stats.Lhist.count h);
  Alcotest.(check int) "min" 1 (Stats.Lhist.min_value h);
  Alcotest.(check int) "max" 1000 (Stats.Lhist.max_value h);
  Alcotest.(check (float 1e-9)) "mean is exact (sum is tracked)" 500.5 (Stats.Lhist.mean h);
  Alcotest.(check int) "p0 = min" 1 (Stats.Lhist.percentile h 0.0);
  Alcotest.(check int) "p100 = max" 1000 (Stats.Lhist.percentile h 100.0);
  let p50 = Stats.Lhist.percentile h 50.0 in
  let p99 = Stats.Lhist.percentile h 99.0 in
  (* Uniform 1..1000: rank 500 lands in bucket [256, 512), rank 990 in
     [512, 1024) — bucket-midpoint resolution, ordered and in range. *)
  Alcotest.(check bool) "p50 within the covering bucket" true (p50 >= 256 && p50 < 512);
  Alcotest.(check bool) "p99 within the covering bucket" true (p99 >= 512 && p99 <= 1000);
  Alcotest.(check bool) "percentiles are ordered" true (p50 <= p99)

let test_lhist_buckets_and_reset () =
  Alcotest.(check int) "bucket_lo 0" 0 (Stats.Lhist.bucket_lo 0);
  Alcotest.(check int) "bucket_lo 1" 1 (Stats.Lhist.bucket_lo 1);
  Alcotest.(check int) "bucket_lo 4" 8 (Stats.Lhist.bucket_lo 4);
  let h = Stats.Lhist.create () in
  List.iter (Stats.Lhist.record h) [ 0; -3; 1; 2; 3; 4; 7; 8 ];
  Alcotest.(check int) "zeros and clamped negatives in bucket 0" 2
    (Stats.Lhist.bucket_count h 0);
  Alcotest.(check int) "[1,2) bucket" 1 (Stats.Lhist.bucket_count h 1);
  Alcotest.(check int) "[2,4) bucket" 2 (Stats.Lhist.bucket_count h 2);
  Alcotest.(check int) "[4,8) bucket" 2 (Stats.Lhist.bucket_count h 3);
  Alcotest.(check int) "[8,16) bucket" 1 (Stats.Lhist.bucket_count h 4);
  Alcotest.(check int) "negative clamps the minimum to 0" 0 (Stats.Lhist.min_value h);
  Stats.Lhist.reset h;
  Alcotest.(check int) "reset count" 0 (Stats.Lhist.count h);
  Alcotest.(check int) "reset max" 0 (Stats.Lhist.max_value h);
  Alcotest.(check int) "reset buckets" 0 (Stats.Lhist.bucket_count h 1)

let test_lhist_record_no_alloc () =
  let h = Stats.Lhist.create () in
  let words =
    Stats.minor_words_per_op ~iters:10_000 (fun () -> Stats.Lhist.record h 777)
  in
  Alcotest.(check (float 0.0)) "Lhist.record allocates nothing" 0.0 words

let test_trace_ring_wraparound () =
  Trace.reset ();
  Fun.protect
    ~finally:(fun () ->
      Trace.armed := false;
      Trace.configure ~capacity:8192;
      Trace.reset ())
    (fun () ->
      Trace.configure ~capacity:8;
      Trace.armed := true;
      for i = 1 to 12 do
        Trace.stamp Trace.ev_fast_hit i
      done;
      Trace.armed := false;
      Alcotest.(check int) "recorded counts every stamp" 12 (Trace.recorded ());
      Alcotest.(check int) "overwritten stamps reported" 4 (Trace.dropped ());
      let seen = ref [] in
      Trace.iter_events (fun s ts ev arg _span -> seen := (s, ts, ev, arg) :: !seen);
      let seen = List.rev !seen in
      Alcotest.(check int) "ring retains capacity events" 8 (List.length seen);
      List.iteri
        (fun k (s, ts, ev, arg) ->
          Alcotest.(check int) "oldest-first sequence" (4 + k) s;
          Alcotest.(check int) "logical timestamp = sequence" (4 + k) ts;
          Alcotest.(check string) "event name" "fastpath_hit" (Trace.event_name ev);
          Alcotest.(check int) "argument survives" (5 + k) arg)
        seen;
      let rendered = Trace.ring_to_string () in
      List.iter
        (fun needle ->
          Alcotest.(check bool) (needle ^ " in render") true
            (Kit.contains_substring rendered needle))
        [ "recorded 12"; "dropped 4"; "capacity 8"; "fastpath_hit" ];
      Alcotest.check_raises "capacity must be a power of two"
        (Invalid_argument "Trace.configure: capacity must be a positive power of two")
        (fun () -> Trace.configure ~capacity:100))

(* A kernel's timer table: start/stop charges its own row, the merged
   histogram keeps the exact sum, and the outcome classes render even
   when empty. *)
let test_timers () =
  let module Timers = Dcache_util.Timers in
  let tm = Timers.create () in
  Alcotest.(check int) "disarmed start reads no clock" 0 (Timers.start tm.Timers.lookups);
  Timers.stop tm Timers.init 0;
  Alcotest.(check int) "a zero start charges nothing" 0
    (Stats.Lhist.count (Timers.get tm Timers.init));
  Timers.arm tm Timers.Lookups true;
  let t0 = Timers.start tm.Timers.lookups in
  Alcotest.(check bool) "armed start reads the clock" true (t0 <> 0);
  Timers.stop tm Timers.init t0;
  Alcotest.(check int) "armed stop records" 1 (Stats.Lhist.count (Timers.get tm Timers.init));
  Timers.record tm Timers.fastpath_hit 500;
  Timers.record tm Timers.fastpath_hit 700;
  Alcotest.(check int) "exact sum" 1200 (Stats.Lhist.sum (Timers.get tm Timers.fastpath_hit));
  let h = Timers.histograms_to_string tm in
  Alcotest.(check bool) "class line present" true
    (Kit.contains_substring h "class fastpath_hit n 2");
  Alcotest.(check bool) "empty classes still listed" true
    (Kit.contains_substring h "class eio n 0");
  Timers.reset tm;
  Alcotest.(check int) "reset empties every row" 0
    (Stats.Lhist.count (Timers.get tm Timers.fastpath_hit))

let test_counter () =
  let module C = Stats.Counter in
  let c = C.create () in
  C.bump c Counters.fastpath_hit;
  C.bump c Counters.fastpath_hit;
  C.add c Counters.path_bytes 5;
  Alcotest.(check int) "bump" 2 (C.get c Counters.fastpath_hit);
  Alcotest.(check int) "add" 5 (C.get c Counters.path_bytes);
  Alcotest.(check int) "untouched" 0 (C.get c Counters.cold);
  Alcotest.(check string) "name" "fastpath_hit" (C.name Counters.fastpath_hit);
  let assoc = C.to_assoc c in
  let names = List.map fst assoc in
  Alcotest.(check (list string)) "sorted by name" (List.sort String.compare names) names;
  Alcotest.(check (list (pair string int))) "every declared counter, zeros included"
    [ ("fastpath_hit", 2); ("path_bytes", 5) ]
    (List.filter (fun (_, v) -> v <> 0) assoc);
  Alcotest.(check int) "zeros listed" 0 (List.assoc "cold" assoc);
  Alcotest.(check (option int)) "one table, separate counts" (Some 0)
    (List.assoc_opt "fastpath_hit" (C.to_assoc (C.create ())));
  C.reset c;
  Alcotest.(check bool) "reset" true (List.for_all (fun (_, v) -> v = 0) (C.to_assoc c));
  Alcotest.check_raises "no declaration once a table exists"
    (Invalid_argument "Stats.Counter.declare: a table already exists: late")
    (fun () -> ignore (C.declare "late"))

let test_vclock () =
  let v = Vclock.create () in
  Vclock.charge v 100L;
  Vclock.charge v 50L;
  Alcotest.(check int64) "sum" 150L (Vclock.elapsed_ns v);
  Vclock.reset v;
  Alcotest.(check int64) "reset" 0L (Vclock.elapsed_ns v)

let test_seqcount () =
  let s = Seqcount.create () in
  let snap = Seqcount.read_begin s in
  Alcotest.(check bool) "valid" true (Seqcount.read_validate s snap);
  Seqcount.bump s;
  Alcotest.(check bool) "invalid after bump" false (Seqcount.read_validate s snap);
  Seqcount.write_begin s;
  let mid = Seqcount.read_begin s in
  Alcotest.(check bool) "odd snapshot invalid" false (Seqcount.read_validate s mid);
  Seqcount.write_end s

let test_rwlock_mutual_exclusion () =
  let lock = Rwlock.create () in
  let counter = ref 0 in
  let writers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 1000 do
              Rwlock.with_write lock (fun () ->
                  let v = !counter in
                  counter := v + 1)
            done))
  in
  List.iter Domain.join writers;
  Alcotest.(check int) "no lost updates" 4000 !counter

let test_rwlock_readers_concurrent () =
  let lock = Rwlock.create () in
  let running = Atomic.make 0 in
  let peak = Atomic.make 0 in
  let readers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 200 do
              Rwlock.with_read lock (fun () ->
                  let n = 1 + Atomic.fetch_and_add running 1 in
                  let rec bump () =
                    let p = Atomic.get peak in
                    if n > p && not (Atomic.compare_and_set peak p n) then bump ()
                  in
                  bump ();
                  ignore (Sys.opaque_identity (ref 0));
                  ignore (Atomic.fetch_and_add running (-1)))
            done))
  in
  List.iter Domain.join readers;
  Alcotest.(check bool) "readers overlapped" true (Atomic.get peak >= 1)

let suite =
  [
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
    Alcotest.test_case "prng string lengths" `Quick test_prng_string;
    Alcotest.test_case "prng split independent" `Quick test_prng_split_independent;
    Alcotest.test_case "prng shuffle permutation" `Quick test_prng_shuffle_permutation;
    Alcotest.test_case "dlist push/pop" `Quick test_dlist_push_pop;
    Alcotest.test_case "dlist remove middle" `Quick test_dlist_remove_middle;
    Alcotest.test_case "dlist iter removing" `Quick test_dlist_iter_remove_current;
    QCheck_alcotest.to_alcotest dlist_model_test;
    Alcotest.test_case "stats median/percentile" `Quick test_stats_median_percentile;
    Alcotest.test_case "stats percentile p0/p100 edges" `Quick test_stats_percentile_edges;
    Alcotest.test_case "lhist basic percentiles" `Quick test_lhist_basic;
    Alcotest.test_case "lhist buckets and reset" `Quick test_lhist_buckets_and_reset;
    Alcotest.test_case "lhist record allocates nothing" `Quick test_lhist_record_no_alloc;
    Alcotest.test_case "trace ring wraparound" `Quick test_trace_ring_wraparound;
    Alcotest.test_case "timer table" `Quick test_timers;
    Alcotest.test_case "counter" `Quick test_counter;
    Alcotest.test_case "vclock" `Quick test_vclock;
    Alcotest.test_case "seqcount" `Quick test_seqcount;
    Alcotest.test_case "rwlock writers exclude" `Quick test_rwlock_mutual_exclusion;
    Alcotest.test_case "rwlock readers concurrent" `Quick test_rwlock_readers_concurrent;
  ]
