(* The metric declarations in BENCHMARK.json: the one place each gated and
   per-layer metric is named, with its unit, direction and bound.  Runs
   print exactly these metrics; [compare] judges by them. *)

type metric = { name : string; unit_ : string; higher_better : bool; bound : float option }
type t = {
  workloads : string list;
  run_seconds : int;  (** the default measuring time of a run *)
  end_to_end : metric list;
  per_layer : metric list;
}

let metric j =
  let s k = Json.to_string (Json.member k j) in
  let higher_better =
    match s "better" with
    | "higher" -> true
    | "lower" -> false
    | b -> Json.fail "metric %s: \"better\" must be higher or lower, not %S" (s "name") b
  in
  {
    name = s "name";
    unit_ = s "unit";
    higher_better;
    bound = Option.map Json.to_float (Json.member_opt "bound" j);
  }

let load path =
  let j = Json.read_file path in
  let metrics k = List.map metric (Json.to_list (Json.member k j)) in
  {
    workloads =
      List.map (fun w -> Json.to_string (Json.member "name" w)) (Json.to_list (Json.member "workloads" j));
    run_seconds = int_of_float (Json.to_float (Json.member "run_seconds" j));
    end_to_end = metrics "end_to_end";
    per_layer = metrics "per_layer";
  }
