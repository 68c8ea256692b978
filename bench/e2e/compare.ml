(* e2e.exe compare BASE.jsonl NEW.jsonl

   For each workload and metric: median, quartiles and n of each side, the
   change of the medians, and a verdict by the direction and bound that
   BENCHMARK.json gives the metric:

   - worse: the new median is worse than the base median by more than the
     bound;
   - better: the new median is better by more than the base's own IQR, and
     the runs pair up (the same number on each side, at least
     [min_pairs]) with the new side winning at least 9 of every 10 pairs;
   - unresolved: the medians show such a gain but the pairs do not back
     it, or either side's IQR exceeds the bound, unless every new run
     reads better than every base run;
   - within bound: otherwise.

   Run i of one file is paired with run i of the other, so record the two
   sides alternating parent and change.  Per-layer metrics have no bound
   and get medians only. *)

type record = { workload : string; values : (string * float) list }

let load path =
  let ic = open_in path in
  let rec lines acc =
    match input_line ic with
    | line when String.trim line = "" -> lines acc
    | line ->
      let j = Json.parse line in
      let metrics =
        match Json.member "metrics" (Json.member "result" j) with
        | Json.Obj kv -> List.map (fun (k, v) -> (k, Json.to_float (Json.member "value" v))) kv
        | _ -> Json.fail "%s: metrics is not an object" path
      in
      lines ({ workload = Json.to_string (Json.member "workload" j); values = metrics } :: acc)
    | exception End_of_file -> List.rev acc
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> lines [])

(* Python's statistics.quantiles(data, n=4), default "exclusive" method. *)
let quartiles values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  let ld = Array.length a in
  if ld < 2 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 2, q 3)

let min_pairs = 10

let verdict (m : Spec.metric) ~base ~fresh =
  let better x y = if m.higher_better then x > y else x < y in
  let q1b, medb, q3b = quartiles base and q1n, medn, q3n = quartiles fresh in
  let worse_by = (if m.higher_better then medb -. medn else medn -. medb) /. Float.abs medb in
  let pairs = if List.length base = List.length fresh then List.combine base fresh else [] in
  let n_pairs = List.length pairs in
  let wins = List.length (List.filter (fun (b, n) -> better n b) pairs) in
  let verdict =
    match m.bound with
    | None -> "-"
    | Some bound ->
      let spread = Float.max ((q3b -. q1b) /. Float.abs medb) ((q3n -. q1n) /. Float.abs medn) in
      let all_better = List.for_all (fun n -> List.for_all (fun b -> better n b) base) fresh in
      if worse_by > bound then "worse"
      else if better medn medb && Float.abs (medn -. medb) > q3b -. q1b then
        if n_pairs >= min_pairs && 10 * wins >= 9 * n_pairs then "better" else "unresolved"
      else if spread > bound && not all_better then "unresolved"
      else "within bound"
  in
  let wins = if pairs = [] then "" else Printf.sprintf "%d/%d" wins n_pairs in
  ((q1b, medb, q3b), (q1n, medn, q3n), -.worse_by *. 100., verdict, wins)

let main spec_path base_path new_path =
  let spec = Spec.load spec_path in
  let base = load base_path and fresh = load new_path in
  Printf.printf "%-10s %-30s %30s %30s %8s %-13s %s\n" "workload" "metric" "base median [q1 q3] n"
    "new median [q1 q3] n" "gain%" "verdict" "wins";
  let side (q1, med, q3) n = Printf.sprintf "%.4g [%.4g %.4g] %d" med q1 q3 n in
  List.iter
    (fun w ->
      let values recs name =
        List.filter_map (fun r -> if r.workload = w then List.assoc_opt name r.values else None) recs
      in
      List.iter
        (fun (m : Spec.metric) ->
          match (values base m.name, values fresh m.name) with
          | [], _ | _, [] -> ()
          | b, n ->
            let qb, qn, gain, v, wins = verdict m ~base:b ~fresh:n in
            Printf.printf "%-10s %-30s %30s %30s %+8.2f %-13s %s\n" w m.name (side qb (List.length b))
              (side qn (List.length n)) gain v wins)
        (spec.Spec.end_to_end @ spec.Spec.per_layer))
    spec.Spec.workloads
