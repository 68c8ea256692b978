open Dcache_types

type t = {
  fs : Dcache_fs.Fs_intf.t;
  ino : int;
  mutable attr : Attr.t;
  mutable link_cache : string option;
}

let make ~fs attr = { fs; ino = attr.Attr.ino; attr; link_cache = None }
let fs t = t.fs
let ino t = t.ino
let attr t = t.attr
let kind t = t.attr.Attr.kind
let is_dir t = File_kind.equal (kind t) File_kind.Directory

let adopt_attr t (attr : Attr.t) =
  if t.attr <> attr then begin
    t.attr <- attr;
    (* The file changed under the same inode number; a cached symlink
       target can no longer be trusted either. *)
    t.link_cache <- None
  end

let refresh t =
  match t.fs.Dcache_fs.Fs_intf.getattr t.ino with
  | Ok attr ->
    t.attr <- attr;
    Ok ()
  | Error _ as e -> Result.map (fun _ -> ()) e

let setattr t changes =
  match t.fs.Dcache_fs.Fs_intf.setattr t.ino changes with
  | Ok attr ->
    t.attr <- attr;
    Ok ()
  | Error e -> Error e

let bump_nlink t delta = t.attr <- { t.attr with Attr.nlink = t.attr.Attr.nlink + delta }
let note_size t size = t.attr <- { t.attr with Attr.size }

let cached_symlink_target t = t.link_cache

let symlink_target t =
  match t.link_cache with
  | Some target -> Ok target
  | None -> (
    match t.fs.Dcache_fs.Fs_intf.readlink t.ino with
    | Ok target ->
      t.link_cache <- Some target;
      Ok target
    | Error _ as e -> e)
