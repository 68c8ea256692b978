(* [Hashtbl]'s polymorphic functions hash every key with the [caml_hash] C
   primitive and compare it with [caml_compare]; on an int key both are a
   few instructions.  Keys here are dense ids (fds, block and inode
   numbers, namespace ids), so a multiplicative mix with a high-bit fold
   spreads them over the power-of-two bucket array. *)
include Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  let hash x =
    let h = x * 0x1E3779B97F4A7C15 in
    (h lxor (h lsr 29)) land max_int
end)
