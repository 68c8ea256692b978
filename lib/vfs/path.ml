open Dcache_types
module Signature = Dcache_sig.Signature

let max_path = 4096
let max_name = 255

type component = Cur | Up | Name of string

let split path =
  if String.length path = 0 then Error Errno.ENOENT
  else if String.length path > max_path then Error Errno.ENAMETOOLONG
  else begin
    let parts = String.split_on_char '/' path in
    let rec convert acc = function
      | [] -> Ok (List.rev acc)
      | "" :: rest -> convert acc rest
      | "." :: rest -> convert (Cur :: acc) rest
      | ".." :: rest -> convert (Up :: acc) rest
      | name :: rest ->
        if String.length name > max_name then Error Errno.ENAMETOOLONG
        else convert (Name name :: acc) rest
    in
    convert [] parts
  end

let is_absolute path = String.length path > 0 && path.[0] = '/'

let has_trailing_slash path =
  let n = String.length path in
  n > 0 && path.[n - 1] = '/'

let lexical_normalize components =
  let rec go stack = function
    | [] -> List.rev stack
    | Cur :: rest -> go stack rest
    | Up :: rest -> (
      match stack with
      | Name _ :: deeper -> go deeper rest
      | Up :: _ | [] -> go (Up :: stack) rest
      | Cur :: _ -> assert false)
    | (Name _ as c) :: rest -> go (c :: stack) rest
  in
  go [] components

(* --- in-place cursor: tail recursions over int arguments on
   [Signature]'s scanner cursors; no list, no substring, no closure --- *)

let[@inline] span_start sp = sp lsr 31
let[@inline] span_stop sp = sp land 0x7fff_ffff
let[@inline] span_len sp = span_stop sp - span_start sp
let is_dot path sp = span_len sp = 1 && path.[span_start sp] = '.'

let is_dotdot path sp =
  span_len sp = 2 && path.[span_start sp] = '.' && path.[span_start sp + 1] = '.'

let name path sp = String.sub path (span_start sp) (span_len sp)

let rec next ~lexical path pos =
  let len = String.length path in
  let i = Signature.skip_slashes path len pos in
  if i >= len then -1
  else begin
    let sp = (i lsl 31) lor Signature.component_end path len i in
    if (not lexical) || is_dotdot path sp then sp
    else if is_dot path sp then next ~lexical path (span_stop sp)
    else match cancelled_after path (span_stop sp) 1 with -1 -> sp | k -> next ~lexical path k
  end

(* Names and [".."] pair up like brackets: the offset just past the [".."]
   that cancels the name before [pos], with [open_] names (that one
   included) not yet cancelled, or -1 when none does. *)
and cancelled_after path pos open_ =
  let sp = next ~lexical:false path pos in
  if sp < 0 then -1
  else if not (is_dotdot path sp) then
    cancelled_after path (span_stop sp) (if is_dot path sp then open_ else open_ + 1)
  else if open_ = 1 then span_stop sp
  else cancelled_after path (span_stop sp) (open_ - 1)

let rec names_fit path pos =
  let sp = next ~lexical:false path pos in
  sp < 0 || (span_len sp <= max_name && names_fit path (span_stop sp))

let check path ~pos =
  let len = String.length path in
  if len - pos <= 0 then Error Errno.ENOENT
  else if len - pos > max_path || not (names_fit path pos) then Error Errno.ENAMETOOLONG
  else Ok ()

let join dir rel =
  if is_absolute rel then rel
  else if has_trailing_slash dir then dir ^ rel
  else dir ^ "/" ^ rel
