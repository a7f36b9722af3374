(* A simnet-named unit comparing at unresolved type variables: every
   compare on lines 5 and 7 is a runtime call into the structural
   compare.  The typed twin on line 9 compiles to register compares. *)

let key_le a1 s1 a2 s2 = a1 < a2 || (a1 = a2 && s1 <= s2)

let sort_keys xs = List.sort compare xs

let typed_le (a1 : float) (s1 : int) a2 s2 = a1 < a2 || (a1 <= a2 && s1 <= s2)
