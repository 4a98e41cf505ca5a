(* The run queue is a ring of the tasks' [Some] cells, each built once when
   its task is queued: a rotation moves the incoming task's cell into
   [current] and the outgoing one's back into the ring, so a tick that
   switches builds nothing. *)
type t = {
  quantum_ticks : int;
  mutable ring : Task.t option array;
  mutable head : int;  (* the oldest entry *)
  mutable size : int;
  mutable current : Task.t option;
  mutable ticks_left : int;
  mutable switches : int;
  on_switch : Task.t -> unit;
}

let create ?(on_switch = fun _ -> ()) ~quantum_ticks () =
  if quantum_ticks <= 0 then invalid_arg "Sched.create: quantum must be positive";
  { quantum_ticks; ring = [||]; head = 0; size = 0; current = None;
    ticks_left = quantum_ticks; switches = 0; on_switch }

(* Append a cell, doubling the ring (oldest entry first) when it is full. *)
let push t cell =
  let cap = Array.length t.ring in
  if t.size = cap then begin
    let ring = Array.make (max 4 (2 * cap)) None in
    for i = 0 to t.size - 1 do
      ring.(i) <- t.ring.((t.head + i) mod cap)
    done;
    t.ring <- ring;
    t.head <- 0
  end;
  t.ring.((t.head + t.size) mod Array.length t.ring) <- cell;
  t.size <- t.size + 1

let pop t =
  let cell = t.ring.(t.head) in
  t.ring.(t.head) <- None;
  t.head <- (t.head + 1) mod Array.length t.ring;
  t.size <- t.size - 1;
  cell

let enqueue t task =
  match t.current with
  | None -> t.current <- Some task
  | Some _ -> push t (Some task)

let current t = t.current

(* The next runnable task's cell, or [None]. Dead tasks are dropped;
   blocked ones stay parked until [wake] queues them again. *)
let rec next_runnable t =
  if t.size = 0 then None
  else
    let cell = pop t in
    match cell with
    | Some { Task.state = Task.Runnable; _ } -> cell
    | Some _ | None -> next_runnable t

let rotate t ~switch k =
  match next_runnable t with
  | None -> false
  | Some next as cell ->
      let prev = t.current in
      (match prev with
      | Some p when p.Task.state = Task.Runnable -> push t prev
      | _ -> ());
      t.current <- cell;
      t.ticks_left <- t.quantum_ticks;
      t.switches <- t.switches + 1;
      switch k ~prev ~next;
      t.on_switch next;
      true

let on_timer t ~switch k =
  t.ticks_left <- t.ticks_left - 1;
  if t.ticks_left <= 0 then begin
    let switched = rotate t ~switch k in
    if not switched then t.ticks_left <- t.quantum_ticks;
    switched
  end
  else false

let yield t ~switch k = rotate t ~switch k

let block_current t =
  match t.current with
  | None -> ()
  | Some task -> task.Task.state <- Task.Blocked

let wake t task =
  if task.Task.state = Task.Blocked then begin
    task.Task.state <- Task.Runnable;
    push t (Some task)
  end

let remove_dead t =
  for _ = 1 to t.size do
    match pop t with
    | Some { Task.state = Task.Dead; _ } -> ()
    | cell -> push t cell
  done;
  match t.current with
  | Some { Task.state = Task.Dead; _ } -> t.current <- next_runnable t
  | _ -> ()

let switches t = t.switches
