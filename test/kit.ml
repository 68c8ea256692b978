(* Shared helpers for kernel-level tests. *)

open Dcache_types
module Kernel = Dcache_syscalls.Kernel
module Proc = Dcache_syscalls.Proc
module S = Dcache_syscalls.Syscalls
module Config = Dcache_vfs.Config
module Cred = Dcache_cred.Cred

let errno = Alcotest.testable (Fmt.of_to_string Errno.to_string) ( = )

let get what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: unexpected %s" what (Errno.to_string e)

let expect_err expected what = function
  | Ok _ -> Alcotest.failf "%s: expected %s, got success" what (Errno.to_string expected)
  | Error e -> Alcotest.check errno what expected e

let ram_kernel ?(config = Config.baseline) ?(lsms = []) () =
  let fs = Dcache_fs.Ramfs.create () in
  let kernel = Kernel.create ~config ~lsms ~root_fs:fs () in
  (kernel, Proc.spawn kernel)

let both_configs f =
  f "baseline" Config.baseline;
  f "optimized" Config.optimized

(* A test that must hold on both kernels. *)
let tc_both name body =
  [
    Alcotest.test_case (name ^ " [baseline]") `Quick (fun () -> body Config.baseline);
    Alcotest.test_case (name ^ " [optimized]") `Quick (fun () -> body Config.optimized);
  ]

let counter kernel key =
  List.assoc key (Kernel.stats_snapshot kernel)

let alice () = Cred.make ~uid:1000 ~gid:1000 ()
let bob () = Cred.make ~uid:1001 ~gid:1001 ()

(* Wrap a low-level fs, counting calls per operation — used to prove that
   cache optimizations actually elide fs work. *)
let counting_fs fs =
  let counts = Hashtbl.create 8 in
  let bump name =
    let r =
      match Hashtbl.find_opt counts name with
      | Some r -> r
      | None ->
        let r = ref 0 in
        Hashtbl.add counts name r;
        r
    in
    incr r
  in
  let get name = match Hashtbl.find_opt counts name with Some r -> !r | None -> 0 in
  let open Dcache_fs.Fs_intf in
  let wrapped =
    {
      fs with
      lookup =
        (fun dir name ->
          bump "lookup";
          fs.lookup dir name);
      getattr =
        (fun ino ->
          bump "getattr";
          fs.getattr ino);
      readdir =
        (fun dir ->
          bump "readdir";
          fs.readdir dir);
      create =
        (fun dir name kind mode ~uid ~gid ->
          bump "create";
          fs.create dir name kind mode ~uid ~gid);
    }
  in
  (wrapped, get)

let contains_substring haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec at i = i + m <= n && (String.sub haystack i m = needle || at (i + 1)) in
  m = 0 || at 0

(* --- a minimal JSON recognizer (no JSON library in the image) ---

   Hand-rolled recursive descent over the grammar; accepts exactly one
   JSON value spanning the whole string.  Shared by t_procfs and t_trace
   to validate Trace.dump_chrome output. *)

exception Bad_json

let json_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c = if peek () = c then incr pos else raise Bad_json in
  let literal w = String.iter expect w in
  let string_ () =
    expect '"';
    let rec go () =
      if !pos >= n then raise Bad_json
      else begin
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
          pos := !pos + 2;
          go ()
        | _ ->
          incr pos;
          go ()
      end
    in
    go ()
  in
  let number () =
    let start = !pos in
    if peek () = '-' then incr pos;
    while
      match peek () with '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true | _ -> false
    do
      incr pos
    done;
    if !pos = start then raise Bad_json
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' -> obj ()
    | '[' -> arr ()
    | '"' -> string_ ()
    | 't' -> literal "true"
    | 'f' -> literal "false"
    | 'n' -> literal "null"
    | _ -> number ()
  and obj () =
    expect '{';
    ws ();
    if peek () = '}' then incr pos
    else begin
      let rec members () =
        ws ();
        string_ ();
        ws ();
        expect ':';
        value ();
        ws ();
        if peek () = ',' then begin
          incr pos;
          members ()
        end
        else expect '}'
      in
      members ()
    end
  and arr () =
    expect '[';
    ws ();
    if peek () = ']' then incr pos
    else begin
      let rec elems () =
        value ();
        ws ();
        if peek () = ',' then begin
          incr pos;
          elems ()
        end
        else expect ']'
      in
      elems ()
    end
  in
  match
    value ();
    ws ()
  with
  | () -> !pos = n
  | exception Bad_json -> false
