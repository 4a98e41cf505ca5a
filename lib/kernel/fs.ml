(* A special node's [write] receives the payload as a (buffer, length)
   view: the buffer may be a caller-owned scratch longer than [len], so the
   kernel's steady-state write path can hand over a reusable page instead
   of allocating an exactly sized bytes per call. *)
type special = { read : unit -> bytes; write : bytes -> len:int -> unit }

type t = {
  files : (string, bytes ref) Hashtbl.t;
  specials : (string, special) Hashtbl.t;
}

let create () = { files = Hashtbl.create 64; specials = Hashtbl.create 8 }

let write_file t path data =
  match Hashtbl.find_opt t.files path with
  | Some r -> r := Bytes.copy data
  | None -> Hashtbl.replace t.files path (ref (Bytes.copy data))

let append_file t path data =
  match Hashtbl.find_opt t.files path with
  | Some r -> r := Bytes.cat !r data
  | None -> write_file t path data

let read_file t path = Option.map (fun r -> Bytes.copy !r) (Hashtbl.find_opt t.files path)

let exists t path = Hashtbl.mem t.files path || Hashtbl.mem t.specials path

let remove t path =
  if Hashtbl.mem t.files path then begin
    Hashtbl.remove t.files path;
    true
  end
  else false

let file_size t path = Option.map (fun r -> Bytes.length !r) (Hashtbl.find_opt t.files path)

let register_special t path ~read ~write = Hashtbl.replace t.specials path { read; write }

let is_special t path = Hashtbl.mem t.specials path

let read_path t path =
  match Hashtbl.find_opt t.specials path with
  | Some s -> Some (s.read ())
  | None -> read_file t path

let write_path t path data =
  match Hashtbl.find_opt t.specials path with
  | Some s ->
      s.write data ~len:(Bytes.length data);
      true
  | None ->
      write_file t path data;
      true

let write_special_view t path buf ~len =
  match Hashtbl.find_opt t.specials path with
  | Some s ->
      s.write buf ~len;
      true
  | None -> false
