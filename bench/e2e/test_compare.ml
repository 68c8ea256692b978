(* Verdicts of [Compare.verdict], and its quartiles against Python's
   statistics.quantiles(values, n=4). *)

let metric = { Spec.name = "req_per_s"; unit_ = "req/s"; higher_better = true; bound = Some 0.1 }
let failures = ref 0

let check name got want =
  if got <> want then begin
    incr failures;
    Printf.printf "FAIL %s: got %S, want %S\n" name got want
  end

let verdict ~base ~fresh =
  let _, _, _, v, _ = Compare.verdict metric ~base ~fresh in
  v

(* [n] runs near [level]: spread 2%, far inside the bound. *)
let runs level n = List.init n (fun i -> level *. (1. +. (0.002 *. float_of_int (i mod 10))))

let () =
  let q1, med, q3 = Compare.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  if (q1, med, q3) <> (2.75, 5.5, 8.25) then begin
    incr failures;
    Printf.printf "FAIL quartiles of 1..10: %g %g %g, want 2.75 5.5 8.25\n" q1 med q3
  end;
  let base = runs 100. 10 in
  check "ten pairs, all won" (verdict ~base ~fresh:(runs 105. 10)) "better";
  (* Pair 10 loses, pair 9 too: 8 of 10. *)
  let eight = List.mapi (fun i v -> if i >= 8 then 90. else v) (runs 105. 10) in
  check "eight of ten pairs won" (verdict ~base ~fresh:eight) "unresolved";
  check "nine pairs only" (verdict ~base:(runs 100. 9) ~fresh:(runs 105. 9)) "unresolved";
  check "unequal run counts" (verdict ~base ~fresh:(runs 105. 11)) "unresolved";
  check "worse beyond the bound" (verdict ~base ~fresh:(runs 85. 10)) "worse";
  check "same level" (verdict ~base ~fresh:(runs 100. 10)) "within bound";
  let noisy = List.init 10 (fun i -> if i mod 2 = 0 then 80. else 120.) in
  check "spread beyond the bound" (verdict ~base ~fresh:noisy) "unresolved";
  if !failures > 0 then exit 1
