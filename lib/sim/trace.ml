type event =
  | Sent of { step : int; id : int; src : int; dst : int; depth : int; words : int }
  | Delivered of { step : int; id : int; src : int; dst : int; depth : int }
  | Corrupted of { step : int; pid : int }

(* The ring is one flat int array, [stride] ints per event, so recording
   allocates nothing:
     [step lsl 2 lor kind; id; src; dst; depth; words]
   with the victim's pid in the [src] slot of a corruption.  It grows by
   doubling up to [capacity] events, then wraps. *)
let stride = 6
let k_sent = 0
let k_delivered = 1
let k_corrupted = 2

type t = {
  capacity : int;
  mutable data : int array;
  mutable next : int;   (* write cursor, in events *)
  mutable total : int;  (* events ever recorded *)
}

let create ?(capacity = 100_000) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { capacity; data = Array.make (stride * min capacity 1024) 0; next = 0; total = 0 }

let grow t =
  let slots = min t.capacity (2 * Array.length t.data / stride) in
  let data = Array.make (stride * slots) 0 in
  Array.blit t.data 0 data 0 (Array.length t.data);
  t.data <- data

let write t ~kind ~step ~id ~src ~dst ~depth ~words =
  let i = t.next in
  (* Before the first wrap the cursor only reaches the end of a buffer
     that is still short of [capacity]. *)
  if stride * i = Array.length t.data then grow t;
  let d = t.data and o = stride * i in
  d.(o) <- (step lsl 2) lor kind;
  d.(o + 1) <- id;
  d.(o + 2) <- src;
  d.(o + 3) <- dst;
  d.(o + 4) <- depth;
  d.(o + 5) <- words;
  t.next <- (if i + 1 = t.capacity then 0 else i + 1);
  t.total <- t.total + 1

(* Sends come through the compact hook, which keeps the engine's lazy
   broadcast: one call writes a broadcast's n [Sent] events, ids
   [id .. id + count - 1] in destination order, exactly the envelopes an
   eager expansion would have reported one by one. *)
let attach t eng =
  Engine.on_send_meta eng (fun ~src ~dst ~count ~id ~depth ~words ~correct:_ _ ->
      let step = Engine.step eng in
      for k = 0 to count - 1 do
        write t ~kind:k_sent ~step ~id:(id + k) ~src ~dst:(dst + k) ~depth ~words
      done);
  Engine.on_deliver eng (fun e ->
      write t ~kind:k_delivered ~step:(Engine.step eng) ~id:e.Envelope.id ~src:e.Envelope.src
        ~dst:e.Envelope.dst ~depth:e.Envelope.depth ~words:e.Envelope.words);
  Engine.on_corrupt eng (fun pid ->
      write t ~kind:k_corrupted ~step:(Engine.step eng) ~id:0 ~src:pid ~dst:0 ~depth:0 ~words:0)

let length t = min t.total t.capacity
let dropped t = max 0 (t.total - t.capacity)

let event_at d o =
  let step = d.(o) lsr 2 and kind = d.(o) land 3 in
  if kind = k_sent then
    Sent
      {
        step;
        id = d.(o + 1);
        src = d.(o + 2);
        dst = d.(o + 3);
        depth = d.(o + 4);
        words = d.(o + 5);
      }
  else if kind = k_delivered then
    Delivered { step; id = d.(o + 1); src = d.(o + 2); dst = d.(o + 3); depth = d.(o + 4) }
  else Corrupted { step; pid = d.(o + 2) }

(* Single pass over the live slots, oldest first, without materializing a
   list; every accessor below is a fold. *)
let fold t ~init ~f =
  let len = length t in
  let start = if t.total <= t.capacity then 0 else t.next in
  let acc = ref init in
  for i = 0 to len - 1 do
    let j = start + i in
    let j = if j >= t.capacity then j - t.capacity else j in
    acc := f !acc (event_at t.data (stride * j))
  done;
  !acc

let iter t ~f = fold t ~init:() ~f:(fun () e -> f e)

let events t = List.rev (fold t ~init:[] ~f:(fun acc e -> e :: acc))

let sends_by t pid =
  fold t ~init:0 ~f:(fun acc e ->
      match e with Sent { src; _ } when src = pid -> acc + 1 | _ -> acc)

let deliveries_of t ~id =
  List.rev
    (fold t ~init:[] ~f:(fun acc e ->
         match e with Delivered { id = i; dst; _ } when i = id -> dst :: acc | _ -> acc))

let corrupted_pids t =
  List.rev
    (fold t ~init:[] ~f:(fun acc e ->
         match e with Corrupted { pid; _ } -> pid :: acc | _ -> acc))

let max_depth t =
  fold t ~init:0 ~f:(fun acc e ->
      match e with
      | Sent { depth; _ } | Delivered { depth; _ } -> max acc depth
      | Corrupted _ -> acc)

let pp_event fmt = function
  | Sent { step; id; src; dst; depth; words } ->
      Format.fprintf fmt "@[<h>%6d SEND  #%d %d->%d depth=%d words=%d@]" step id src dst depth words
  | Delivered { step; id; src; dst; depth } ->
      Format.fprintf fmt "@[<h>%6d DELIV #%d %d->%d depth=%d@]" step id src dst depth
  | Corrupted { step; pid } -> Format.fprintf fmt "@[<h>%6d CORRUPT pid=%d@]" step pid

let pp fmt t =
  iter t ~f:(fun e -> Format.fprintf fmt "%a@." pp_event e);
  if dropped t > 0 then Format.fprintf fmt "(%d earlier events dropped)@." (dropped t)
