(* End-to-end benchmark of the directory cache.  Run from the repository
   root, which holds BENCHMARK.json:

     e2e.exe --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--record FILE]
     e2e.exe compare BASE.jsonl NEW.jsonl

   A run prints progress on stderr and, as the last line of stdout, one
   JSON object: {"correct", "attempted", "failed", "metrics"}.  With
   --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
   --trace 1 its per_layer list; a traced run also writes the spans of its
   last requests to bench/e2e/traces/<workload>-<seed>.json (Chrome trace
   format).  --record appends {"workload", "seed", "trace", "result"} to a
   JSONL file for [compare].  --quick runs one round at a fortieth of the
   requests, prints no progress and writes no spans, and exits 1 if any
   request's outcome was wrong. *)

let spec_file = "BENCHMARK.json"
let trace_dir = Filename.concat "bench" (Filename.concat "e2e" "traces")

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("e2e: " ^ s);
      exit 2)
    fmt

let append_line path line =
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
  output_string oc (line ^ "\n");
  close_out oc

let run args =
  let workload = ref "" and seed = ref 1 and seconds = ref None and trace = ref (-1) in
  let quick = ref false and record = ref "" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N request-stream seed (default 1)");
      ( "--seconds",
        Arg.Int (fun s -> seconds := Some s),
        "S seconds to spend measuring (default: BENCHMARK.json's run_seconds)" );
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or traced per-layer metrics (1)");
      ("--quick", Arg.Set quick, " one round at a fortieth of the requests; exit 1 on a wrong outcome");
      ("--record", Arg.Set_string record, "FILE append the result to a JSONL file");
    ]
  in
  let usage = "e2e.exe --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--record FILE]" in
  (try Arg.parse_argv ~current:(ref 0) args specs (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage with
  | Arg.Bad msg | Arg.Help msg ->
    prerr_string msg;
    exit 2);
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  let spec = try Spec.load spec_file with Sys_error e | Json.Error e -> die "%s: %s" spec_file e in
  let seconds = Option.value !seconds ~default:spec.Spec.run_seconds in
  if seconds < 1 then die "--seconds must be at least 1";
  let w =
    match List.find_opt (fun (w : Work.t) -> w.name = !workload) Work.all with
    | Some w -> w
    | None ->
      die "unknown workload %S (one of: %s)" !workload
        (String.concat ", " (List.map (fun (w : Work.t) -> w.name) Work.all))
  in
  let traced = !trace = 1 in
  let say s = prerr_endline (Printf.sprintf "e2e %s seed %d: %s" w.name !seed s) in
  let log s = if not !quick then say s in
  let seconds = float_of_int seconds in
  let r = Measure.run w ~seed:!seed ~seconds ~trace:traced ~quick:!quick ~log in
  let wanted = if traced then spec.Spec.per_layer else spec.Spec.end_to_end in
  let metrics =
    List.map
      (fun (m : Spec.metric) ->
        match List.assoc_opt m.name r.Measure.values with
        | Some v -> (m.name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str m.unit_) ])
        | None -> die "%s names metric %S, which %s does not produce" spec_file m.name w.name)
      wanted
  in
  List.iter (fun (k, v) -> log (Printf.sprintf "%-32s %s" k (Json.show v))) metrics;
  let result =
    Json.Obj
      [
        ("correct", Json.Bool (r.Measure.failures = 0));
        ("attempted", Json.Num (float_of_int r.Measure.attempted));
        ("failed", Json.Num (float_of_int r.Measure.failures));
        ("metrics", Json.Obj metrics);
      ]
  in
  if traced && not !quick then begin
    (try Sys.mkdir trace_dir 0o755 with Sys_error _ -> ());
    let path = Filename.concat trace_dir (Printf.sprintf "%s-%d.json" w.name !seed) in
    Tracer.write_chrome path;
    log ("spans written to " ^ path)
  end;
  if !record <> "" then
    append_line !record
      (Json.show
         (Json.Obj
            [ ("workload", Json.Str w.name); ("seed", Json.Num (float_of_int !seed));
              ("trace", Json.Num (float_of_int !trace)); ("result", result) ]));
  print_endline (Json.show result);
  if r.Measure.failures > 0 then begin
    say (Printf.sprintf "%d of %d requests had a wrong outcome" r.Measure.failures r.Measure.attempted);
    if !quick then exit 1
  end

let () =
  match Array.to_list Sys.argv with
  | _ :: "compare" :: [ base; fresh ] -> (
    try Compare.main spec_file base fresh with Sys_error e | Json.Error e -> die "%s" e)
  | _ :: "compare" :: _ -> die "usage: e2e.exe compare BASE.jsonl NEW.jsonl"
  | _ -> run Sys.argv
