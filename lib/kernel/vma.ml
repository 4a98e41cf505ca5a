type prot = { read : bool; write : bool; exec : bool }

let prot_rw = { read = true; write = true; exec = false }
let prot_r = { read = true; write = false; exec = false }

type kind = Anon | Stack | File of string | Confined | Common

type region = { start : int; len : int; prot : prot; kind : kind }

let region_end r = r.start + r.len

type t = region list (* sorted by start, non-overlapping *)

let empty = []

let page_aligned v = v land (Hw.Phys_mem.page_size - 1) = 0

let add t r =
  if r.len <= 0 then Error "empty region"
  else if not (page_aligned r.start && page_aligned r.len) then Error "unaligned region"
  else begin
    let overlapping other = r.start < region_end other && other.start < region_end r in
    if List.exists overlapping t then Error "overlapping region"
    else Ok (List.sort (fun a b -> compare a.start b.start) (r :: t))
  end

let remove t ~start = List.filter (fun r -> r.start <> start) t

let rec find_exn t addr =
  match t with
  | [] -> raise Not_found
  | r :: rest -> if addr >= r.start && addr < region_end r then r else find_exn rest addr

let find t addr = match find_exn t addr with r -> Some r | exception Not_found -> None

let iter = List.iter
let count = List.length

let total_bytes t kind =
  List.fold_left (fun acc r -> if r.kind = kind then acc + r.len else acc) 0 t

let find_gap t ~hint ~len ~limit =
  let hint = Layout.page_align_up hint in
  let len = Layout.page_align_up len in
  (* Candidate starts: the hint itself and the end of every region. *)
  let candidates =
    hint :: List.filter_map (fun r -> if region_end r >= hint then Some (region_end r) else None) t
  in
  let fits start =
    start + len <= limit
    && not (List.exists (fun r -> start < region_end r && r.start < start + len) t)
  in
  List.sort compare candidates |> List.find_opt fits
