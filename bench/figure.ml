(* The figure driver: every experiment of the bench CLI runs its trials,
   times its operations, prints its tables and checks its bounds here.

   - Trials.  [runs] warms each arm with one discarded run, then runs [n]
     rounds with every arm once per round, reversing the arms' order on
     odd rounds so host drift taxes each arm alike.  [trials] reduces each
     arm's samples to a spread: median, quartiles, n.
   - Timing.  [per_op] is the one timed loop, optionally charging a
     virtual clock (simulated device and fs time); [latency] repeats it.
   - Tables.  A table declares its columns once: header, printf format
     (width, decimals, sign, suffix) and JSON key.  [row] prints a row and
     appends it to the experiment's record, which [run] writes to
     BENCH_<experiment>.json through [Json.show].
   - Gates.  [exact] prints a FAIL line and makes the run exit 1; [loose]
     prints a WARNING. *)

module Clock = Dcache_util.Clock

let exit_code = ref 0
let repeats () = if !Bu.quick then 5 else 9

(* --- trials --- *)

type spread = { median : float; q1 : float; q3 : float; n : int }

let spread samples =
  let q1, median, q3 = Compare.quartiles samples in
  { median; q1; q3; n = List.length samples }

let rescale k s = { s with median = s.median *. k; q1 = s.q1 *. k; q3 = s.q3 *. k }

(* Each arm's samples, in round order. *)
let runs ?(n = repeats ()) arms =
  List.iter (fun arm -> ignore (arm ())) arms;
  let round r =
    if r land 1 = 0 then List.map (fun arm -> arm ()) arms
    else List.rev (List.map (fun arm -> arm ()) (List.rev arms))
  in
  let rounds = List.init n round in
  List.mapi (fun i _ -> List.map (fun r -> List.nth r i) rounds) arms

let trials arms = List.map spread (runs arms)
let trial arm = List.hd (trials [ arm ])

(* One spread per field of samples that are equal-length float lists. *)
let spreads samples =
  List.mapi (fun j _ -> spread (List.map (fun s -> List.nth s j) samples)) (List.hd samples)

(* --- timing --- *)

let elapsed_ns f =
  let t0 = Clock.monotonic_ns () in
  f ();
  Clock.monotonic_ns () - t0

(* Nanoseconds per call over [iters] calls of [f]; with [vclock], plus the
   virtual time charged to it meanwhile. *)
let per_op ?vclock ~iters f =
  let virt () =
    match vclock with Some c -> Int64.to_int (Dcache_util.Vclock.elapsed_ns c) | None -> 0
  in
  let v0 = virt () in
  let real =
    elapsed_ns (fun () ->
        for _ = 1 to iters do
          f ()
        done)
  in
  float_of_int (real + virt () - v0) /. float_of_int iters

let latency ?vclock ?(iters = 2000) f = trial (fun () -> per_op ?vclock ~iters f)

(* --- tables --- *)

(* A cell: a count, a real, a label, a measured spread (printed as its
   median), or nothing ("-", JSON null). *)
type cell = C of int | R of float | L of string | M of spread | Nil

type col = {
  head : string;
  width : int;
  dec : int;
  sign : bool;
  suffix : string;
  left : bool;
  bar : bool;  (** a "| " separator before the column *)
  key : string;
}

(* The column is at least as wide as its header. *)
let col ?(dec = 1) ?(sign = false) ?(suffix = "") ?(left = false) ?(bar = false) width head key =
  { head; width = max width (String.length head); dec; sign; suffix; left; bar; key }

let render c = function
  | C v -> string_of_int v
  | R v | M { median = v; _ } -> Printf.sprintf (if c.sign then "%+.*f" else "%.*f") c.dec v ^ c.suffix
  | L s -> s
  | Nil -> "-"

let json = function
  | C v -> Json.Num (float_of_int v)
  | R v -> Json.Num v
  | L s -> Json.Str s
  | M s ->
    Json.Obj
      [ ("median", Json.Num s.median); ("q1", Json.Num s.q1); ("q3", Json.Num s.q3);
        ("n", Json.Num (float_of_int s.n)) ]
  | Nil -> Json.Null

let print_line cols texts =
  let pad c s = if c.left then Printf.sprintf "%-*s" c.width s else Printf.sprintf "%*s" c.width s in
  print_endline
    (String.concat " " (List.map2 (fun c s -> (if c.bar then "| " else "") ^ pad c s) cols texts))

(* The running experiment's record, newest field first; a table's rows are
   rendered when the record is written. *)
let record : (string * (unit -> Json.t)) list ref = ref []

let put key v = record := (key, fun () -> v) :: !record

type table = { cols : col list; mutable rows : Json.t list }

let table key cols =
  let t = { cols; rows = [] } in
  record := (key, fun () -> Json.Arr (List.rev t.rows)) :: !record;
  print_line cols (List.map (fun c -> c.head) cols);
  t

let row t cells =
  print_line t.cols (List.map2 render t.cols cells);
  t.rows <- Json.Obj (List.map2 (fun c v -> (c.key, json v)) t.cols cells) :: t.rows

(* --- gates --- *)

let gate tag ok fmt = Printf.ksprintf (fun msg -> if not ok then Printf.printf "  %s: %s\n" tag msg) fmt
let loose ok fmt = gate "WARNING" ok fmt

let exact ok fmt =
  if not ok then exit_code := 1;
  gate "FAIL" ok fmt

(* --- the BENCH record --- *)

(* One top-level field per line and one table row per line, every value
   rendered by [Json.show]. *)
let layout fields =
  let value = function
    | Json.Arr (_ :: _ as rows) ->
      "[\n    " ^ String.concat ",\n    " (List.map Json.show rows) ^ "\n  ]"
    | v -> Json.show v
  in
  let field (k, v) = "  " ^ Json.show (Json.Str k) ^ ": " ^ value v in
  "{\n" ^ String.concat ",\n" (List.map field fields) ^ "\n}\n"

(* Run experiment [id] and write BENCH_<id>.json: the envelope (experiment
   id, quick/full mode, host core count), then the experiment's fields. *)
let run id experiment =
  record := [];
  experiment ();
  let envelope =
    [ ("experiment", Json.Str id); ("mode", Json.Str (if !Bu.quick then "quick" else "full"));
      ("host_cores", Json.Num (float_of_int (Domain.recommended_domain_count ()))) ]
  in
  let file = "BENCH_" ^ id ^ ".json" in
  let oc = open_out file in
  output_string oc (layout (envelope @ List.rev_map (fun (k, v) -> (k, v ())) !record));
  close_out oc;
  Printf.printf "wrote %s\n" file
