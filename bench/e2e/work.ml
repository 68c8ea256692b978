(* The four workloads.  Each builds its corpus through the syscall layer,
   keeps a model of the namespace it built, and generates a seeded request
   stream one request at a time.  The model gives every op its expected
   outcome: Ok or ENOENT, the listing length of a readdir, the file size of
   a stat or a read.  The corpus is fixed; --seed drives only the requests.

   Why these four: tree-hot's working set fits every cache the program has,
   tree-wide's overflows the 4096-entry PCC, webserver piles up negative
   dentries under directories it lists, and maildir mixes namespace writes
   with the reads.  README.md gives the numbers behind each choice.

   The shares of each op and the uniform picks of files and mailboxes are
   this benchmark's assumptions: no trace, and no table of the paper, gives
   them (README.md, "Where the mixes come from"). *)

module P = Dcache_syscalls.Proc
module Prng = Dcache_util.Prng
module Attr = Dcache_types.Attr
module Errno = Dcache_types.Errno
module Access = Dcache_types.Access
module Tree_gen = Dcache_workloads.Tree_gen

type gen = {
  next : unit -> unit;  (** draw the next request; runs outside the timer *)
  exec : unit -> bool;  (** issue it; true when every outcome matched the model *)
  read_paths : unit -> string array;  (** paths a read request may name *)
}

type t = {
  name : string;
  requests : int;  (** timed requests per round *)
  warmup : int;  (** untimed requests per round, part of set-up *)
  rate : float;  (** fixed open-loop arrival rate, req/s *)
  slo_us : float;  (** p99 sojourn limit *)
  build : Rig.t -> seed:int -> gen;
}

(* --- checked ops: each compares its outcome with the model --- *)

let stat_size proc path size =
  match Calls.stat proc path with Ok a -> a.Attr.size = size | Error _ -> false

let lstat_size proc path size =
  match Calls.lstat proc path with Ok a -> a.Attr.size = size | Error _ -> false

let absent proc path = match Calls.stat proc path with Error Errno.ENOENT -> true | _ -> false
let readable proc path = Calls.access proc path Access.may_read = Ok ()
let rdonly = [ P.O_RDONLY ]
let rddir = [ P.O_RDONLY; P.O_DIRECTORY ]
let wrcreate = [ P.O_WRONLY; P.O_CREAT; P.O_EXCL ]

(* open + read + close; the read asks for more than the file holds. *)
let read_size proc path size =
  match Calls.openf proc path rdonly with
  | Error _ -> false
  | Ok fd ->
    let got = match Calls.read proc fd (size + 1) with Ok s -> String.length s | Error _ -> -1 in
    Calls.close proc fd = Ok () && got = size

(* open + readdir + [each name] per entry + close.  Entries stay in the
   process's dirent scratch until the next readdir. *)
let listing proc dir expected each =
  match Calls.openf proc dir rddir with
  | Error _ -> false
  | Ok fd ->
    let n = Calls.readdir proc fd in
    let names = proc.P.dirents.P.ds_names in
    let ok = ref (n = expected) in
    for i = 0 to n - 1 do
      if not (each names.(i)) then ok := false
    done;
    Calls.close proc fd = Ok () && !ok

(* --- tree-hot, tree-wide: app-style metadata mix over a source tree --- *)

let tree ~scale (rig : Rig.t) ~seed =
  let proc = rig.proc in
  let m = Tree_gen.build proc ~root:"/src" (Tree_gen.source_tree ~scale ()) in
  let files = Array.of_list m.Tree_gen.files in
  let absent_names = Array.map (fun f -> f ^ ".orig") files in
  let dirs = Array.of_list m.Tree_gen.dirs in
  let children = Hashtbl.create (Array.length dirs) in
  let add path =
    let parent = Filename.dirname path in
    Hashtbl.replace children parent (1 + Option.value ~default:0 (Hashtbl.find_opt children parent))
  in
  List.iter add m.Tree_gen.files;
  List.iter add m.Tree_gen.symlinks;
  List.iter add (List.tl m.Tree_gen.dirs);
  let dir_len = Array.map (fun d -> Option.value ~default:0 (Hashtbl.find_opt children d)) dirs in
  let size = m.Tree_gen.spec.Tree_gen.file_size in
  let prng = Prng.create seed in
  let op = ref 0 and i = ref 0 in
  let next () =
    let r = Prng.int prng 100 in
    op := (if r < 40 then 0 else if r < 50 then 1 else if r < 60 then 2 else if r < 80 then 3
           else if r < 85 then 4 else 5);
    i := Prng.int prng (if !op = 4 then Array.length dirs else Array.length files)
  in
  let exec () =
    match !op with
    | 0 -> stat_size proc files.(!i) size
    | 1 -> lstat_size proc files.(!i) size
    | 2 -> readable proc files.(!i)
    | 3 -> read_size proc files.(!i) size
    | 4 -> listing proc dirs.(!i) dir_len.(!i) (fun _ -> true)
    | _ -> absent proc absent_names.(!i)
  in
  { next; exec; read_paths = (fun () -> files) }

(* --- webserver: Table 3's directory listings, GETs and 404s --- *)

let web_dirs = [| 16; 64; 256; 1024 |]
let web_body = "<html/>" (* what Webserver.setup writes *)

let webserver (rig : Rig.t) ~seed =
  let proc = rig.proc in
  let dirs = Array.map (Printf.sprintf "/www/d%d") web_dirs in
  Array.iteri (fun d dir -> Dcache_workloads.Webserver.setup proc ~dir ~files:web_dirs.(d)) dirs;
  let files =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun d dir -> Array.init web_dirs.(d) (fun k -> Printf.sprintf "%s/doc%05d.html" dir (k + 1)))
            dirs))
  in
  let size = String.length web_body in
  let prng = Prng.create seed in
  let op = ref 0 and i = ref 0 and missing = ref "" and misses = ref 0 in
  let next () =
    let r = Prng.int prng 100 in
    if r < 30 then begin
      op := 0;
      i := Prng.int prng (Array.length dirs)
    end
    else if r < 90 then begin
      op := 1;
      i := Prng.int prng (Array.length files)
    end
    else begin
      (* A fresh absent name each time: the negatives pile up. *)
      op := 2;
      incr misses;
      missing := Printf.sprintf "%s/gone-%d-%d.html" dirs.(Prng.int prng (Array.length dirs)) seed !misses
    end
  in
  let exec () =
    match !op with
    | 0 ->
      let dir = dirs.(!i) in
      listing proc dir web_dirs.(!i) (fun name -> stat_size proc (dir ^ "/" ^ name) size)
    | 1 -> stat_size proc files.(!i) size && read_size proc files.(!i) size
    | _ -> absent proc !missing
  in
  { next; exec; read_paths = (fun () -> files) }

(* --- maildir: Fig. 10's IMAP server over eight mailboxes --- *)

let mailboxes = 8
let messages = 400
let delivered_body = "Subject: new\n\nbody\n"

(* Flags live after the last ','; toggling S or F always renames. *)
let toggle_flag prng name =
  let comma = String.rindex name ',' in
  let base = String.sub name 0 (comma + 1) in
  let flags = String.sub name (comma + 1) (String.length name - comma - 1) in
  let f = if Prng.bool prng then 'S' else 'F' in
  if String.contains flags f then base ^ String.concat "" (String.split_on_char f flags)
  else base ^ String.make 1 f ^ flags

let maildir (rig : Rig.t) ~seed =
  let proc = rig.proc in
  let roots = Array.init mailboxes (Printf.sprintf "/mail/u%d") in
  let names =
    Array.mapi
      (fun b root -> Array.of_list (Tree_gen.build_maildir proc ~root ~messages ~seed:(7 + b)))
      roots
  in
  (* Tree_gen.build_maildir writes message i (from 1) with this body. *)
  let body k = Printf.sprintf "Subject: message %d\n\nbody\n" (k + 1) in
  let sizes = Array.map (fun _ -> Array.init messages (fun k -> String.length (body k))) roots in
  let cur b = roots.(b) ^ "/cur" in
  (* Expunged names never come back (uids are unique), so they are the
     absent names a stale client stats. *)
  let gone = Array.make 64 "" and n_gone = ref 0 in
  let prng = Prng.create seed in
  let uid = ref 2_000_000 in
  let op = ref 0 and b = ref 0 and size = ref 0 in
  let p1 = ref "" and p2 = ref "" and p3 = ref "" in
  let next () =
    let r = Prng.int prng 100 in
    b := Prng.int prng mailboxes;
    let box = names.(!b) in
    let k = Prng.int prng messages in
    if r < 50 then begin
      op := 0;
      let renamed = toggle_flag prng box.(k) in
      p1 := cur !b ^ "/" ^ box.(k);
      p2 := cur !b ^ "/" ^ renamed;
      box.(k) <- renamed
    end
    else if r < 80 then begin
      op := 1;
      p1 := cur !b ^ "/" ^ box.(k);
      size := sizes.(!b).(k)
    end
    else if r < 90 then begin
      op := 2;
      incr uid;
      let fresh = Printf.sprintf "%d.%06d.host:2," !uid (!uid * 7 mod 1_000_000) in
      p1 := roots.(!b) ^ "/new/" ^ fresh;
      p2 := cur !b ^ "/" ^ fresh;
      p3 := cur !b ^ "/" ^ box.(k);
      gone.(!n_gone mod Array.length gone) <- !p3;
      incr n_gone;
      box.(k) <- fresh;
      sizes.(!b).(k) <- String.length delivered_body
    end
    else begin
      op := 3;
      p1 :=
        if !n_gone = 0 then roots.(!b) ^ "/dovecot-uidlist.lock"
        else gone.(Prng.int prng (min !n_gone (Array.length gone)))
    end
  in
  let reread () = listing proc (cur !b) messages (fun _ -> true) in
  let exec () =
    match !op with
    | 0 -> Calls.rename proc !p1 !p2 = Ok () && reread ()
    | 1 -> stat_size proc !p1 !size && read_size proc !p1 !size
    | 2 ->
      let delivered =
        match Calls.openf proc !p1 wrcreate with
        | Error _ -> false
        | Ok fd ->
          let w = Calls.write proc fd delivered_body in
          Calls.close proc fd = Ok () && w = Ok (String.length delivered_body)
      in
      delivered && Calls.rename proc !p1 !p2 = Ok () && Calls.unlink proc !p3 = Ok () && reread ()
    | _ -> absent proc !p1
  in
  let read_paths () =
    Array.concat (Array.to_list (Array.mapi (fun b box -> Array.map (fun n -> cur b ^ "/" ^ n) box) names))
  in
  { next; exec; read_paths }

(* Frozen at the seed commit (README.md, "Calibration").  Requests per
   round: the seed reaches Measure.max_rounds in about 20 s.  SLO: about
   10x the seed's req_p90_us.  Fixed rate: about a tenth of the seed's
   req_per_s. *)
let all =
  [
    { name = "tree-hot"; requests = 300_000; warmup = 40_000; rate = 50_000.; slo_us = 40.;
      build = tree ~scale:4.0 };
    { name = "tree-wide"; requests = 80_000; warmup = 40_000; rate = 13_000.; slo_us = 110.;
      build = tree ~scale:40.0 };
    { name = "webserver"; requests = 9_000; warmup = 2_000; rate = 1_000.; slo_us = 2_500.;
      build = webserver };
    { name = "maildir"; requests = 16_000; warmup = 2_000; rate = 1_600.; slo_us = 1_400.;
      build = maildir };
  ]
