open Dcache_types

type hooks = {
  name : string;
  inode_permission : Cred.t -> Attr.t -> Access.t -> bool;
}

type registry = { mutable modules : hooks list (* registration order *) }

let create () = { modules = [] }
let register registry hooks = registry.modules <- registry.modules @ [ hooks ]
let names registry = List.map (fun h -> h.name) registry.modules

let dac_permission cred (attr : Attr.t) mask =
  let wants_exec = mask land Access.may_exec <> 0 in
  if Cred.uid cred = 0 then
    (* CAP_DAC_OVERRIDE: root bypasses rw checks; executing a regular file
       still requires at least one x bit. *)
    (not wants_exec)
    || (not (File_kind.equal attr.kind File_kind.Regular))
    || attr.mode land 0o111 <> 0
  else begin
    let class_bits =
      if Cred.uid cred = attr.uid then Mode.owner_bits attr.mode
      else if Cred.in_group cred attr.gid then Mode.group_bits attr.mode
      else Mode.other_bits attr.mode
    in
    (* MAY_* masks and rwx class bits share the same encoding (r=4 w=2 x=1). *)
    class_bits land mask = mask
  end

(* Top-level recursion instead of [List.for_all (fun h -> ...)]: the closure
   capturing cred/attr/mask costs 6 minor words per call, and this sits on
   zero-allocation paths (the walk's exec checks). *)
let rec all_permit modules cred attr mask =
  match modules with
  | [] -> true
  | h :: tl -> h.inode_permission cred attr mask && all_permit tl cred attr mask

let permission registry cred attr mask =
  dac_permission cred attr mask && all_permit registry.modules cred attr mask

let counting hooks =
  let calls = ref 0 in
  let wrapped cred attr mask =
    incr calls;
    hooks.inode_permission cred attr mask
  in
  ({ hooks with inode_permission = wrapped }, fun () -> !calls)
