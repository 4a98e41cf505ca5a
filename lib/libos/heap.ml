let align = 16

type t = {
  base : int;
  len : int;
  mutable free_list : (int * int) list; (* (addr, len), sorted by addr *)
  allocated : (int, int) Hashtbl.t;     (* addr -> len *)
  mutable used : int;
}

let round_up n = (n + align - 1) / align * align

let create ~base ~len =
  if len <= 0 then invalid_arg "Heap.create: empty arena";
  { base; len; free_list = [ (base, len) ]; allocated = Hashtbl.create 64; used = 0 }

let alloc t n =
  let n = max align (round_up n) in
  let rec take acc = function
    | [] -> None
    | (addr, blen) :: rest when blen >= n ->
        let remainder = if blen = n then [] else [ (addr + n, blen - n) ] in
        t.free_list <- List.rev_append acc (remainder @ rest);
        Hashtbl.replace t.allocated addr n;
        t.used <- t.used + n;
        Some addr
    | block :: rest -> take (block :: acc) rest
  in
  take [] t.free_list

let free t addr =
  match Hashtbl.find_opt t.allocated addr with
  | None -> invalid_arg "Heap.free: unknown or double-freed block"
  | Some n ->
      Hashtbl.remove t.allocated addr;
      t.used <- t.used - n;
      (* Insert sorted, then coalesce adjacent free blocks. *)
      let blocks = List.sort compare ((addr, n) :: t.free_list) in
      let rec coalesce = function
        | (a1, l1) :: (a2, l2) :: rest when a1 + l1 = a2 -> coalesce ((a1, l1 + l2) :: rest)
        | block :: rest -> block :: coalesce rest
        | [] -> []
      in
      t.free_list <- coalesce blocks

let used_bytes t = t.used
