type t = {
  quantum_ticks : int;
  queue : Task.t Queue.t;
  mutable current : Task.t option;
  mutable ticks_left : int;
  mutable switches : int;
  on_switch : Task.t -> unit;
}

let create ?(on_switch = fun _ -> ()) ~quantum_ticks () =
  if quantum_ticks <= 0 then invalid_arg "Sched.create: quantum must be positive";
  { quantum_ticks; queue = Queue.create (); current = None; ticks_left = quantum_ticks;
    switches = 0; on_switch }

let enqueue t task =
  match t.current with
  | None -> t.current <- Some task
  | Some _ -> Queue.add task t.queue

let current t = t.current

let runnable_count t =
  let queued =
    Queue.fold (fun acc task -> if task.Task.state = Task.Runnable then acc + 1 else acc) 0 t.queue
  in
  queued + match t.current with Some { Task.state = Task.Runnable; _ } -> 1 | _ -> 0

let rec next_runnable t =
  match Queue.take_opt t.queue with
  | None -> None
  | Some task -> (
      match task.Task.state with
      | Task.Runnable -> Some task
      | Task.Dead -> next_runnable t
      | Task.Blocked ->
          (* Blocked tasks stay parked; callers re-enqueue via [wake]. *)
          next_runnable t)

let rotate t ~switch k =
  match next_runnable t with
  | None -> false
  | Some next ->
      let prev = t.current in
      (match prev with
      | Some p when p.Task.state = Task.Runnable -> Queue.add p t.queue
      | _ -> ());
      t.current <- Some next;
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
    Queue.add task t.queue
  end

let remove_dead t =
  let keep = Queue.create () in
  Queue.iter (fun task -> if task.Task.state <> Task.Dead then Queue.add task keep) t.queue;
  Queue.clear t.queue;
  Queue.transfer keep t.queue;
  match t.current with
  | Some { Task.state = Task.Dead; _ } -> t.current <- next_runnable t
  | _ -> ()

let switches t = t.switches
