(* Power-of-two upper bounds 2^0 .. 2^24, plus an overflow bucket.  Sim
   quantities (words per message, causal depth, latency in steps or
   virtual time) all fit comfortably under 2^24. *)
let bucket_bounds =
  Array.append (Array.init 25 (fun i -> Float.of_int (1 lsl i))) [| Float.infinity |]

(* The first bound [>= v], read off the binary exponent: [v = m * 2^e]
   with [1 <= m < 2] lands on bound [2^e] when [m = 1] and on [2^(e+1)]
   otherwise.  NaN fails both comparisons and lands in the overflow
   bucket. *)
let bucket_index v =
  if v <= 1.0 then 0
  else if v <= 16777216.0 then begin
    let bits = Int64.bits_of_float v in
    let e = Int64.to_int (Int64.shift_right_logical bits 52) - 1023 in
    if Int64.equal (Int64.logand bits 0xF_FFFF_FFFF_FFFFL) 0L then e else e + 1
  end
  else Array.length bucket_bounds - 1

type hist = { count : int; sum : float; min : float; max : float; buckets : int array }

(* The float statistics sit in an all-float record, which OCaml stores
   unboxed: updating them allocates nothing. *)
type hist_floats = { mutable h_sum : float; mutable h_min : float; mutable h_max : float }
type hist_cell = { mutable h_count : int; h_f : hist_floats; h_buckets : int array }

(* Keys are (name, canonical labels); the Hashtbl key is the rendered
   series string to keep hashing cheap and collision-free. *)
type series = { name : string; labels : (string * string) list }

type t = {
  counters : (string, series * int ref) Hashtbl.t;
  histograms : (string, series * hist_cell) Hashtbl.t;
}

let create () = { counters = Hashtbl.create 64; histograms = Hashtbl.create 16 }

let compare_label (ka, va) (kb, vb) =
  let c = String.compare ka kb in
  if c <> 0 then c else String.compare va vb

let canonical labels = List.sort compare_label labels

let render name labels =
  let buf = Buffer.create 32 in
  Buffer.add_string buf name;
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf '|';
      Buffer.add_string buf k;
      Buffer.add_char buf '=';
      Buffer.add_string buf v)
    labels;
  Buffer.contents buf

(* Cell lookup, created on a miss; both take canonical [labels]. *)
let counter_cell t name labels =
  let key = render name labels in
  match Hashtbl.find_opt t.counters key with
  | Some (_, r) -> r
  | None ->
      let r = ref 0 in
      Hashtbl.replace t.counters key ({ name; labels }, r);
      r

let hist_cell t name labels =
  let key = render name labels in
  match Hashtbl.find_opt t.histograms key with
  | Some (_, c) -> c
  | None ->
      let c =
        {
          h_count = 0;
          h_f = { h_sum = 0.0; h_min = Float.infinity; h_max = Float.neg_infinity };
          h_buckets = Array.make (Array.length bucket_bounds) 0;
        }
      in
      Hashtbl.replace t.histograms key ({ name; labels }, c);
      c

(* ------------------------------ handles ------------------------------ *)

(* A handle canonicalises its labels once and binds its cell on its first
   update, sharing the cell any other handle or call on the same series
   bound: a handle that never fires leaves no series behind. *)
type 'cell handle = { reg : t; series : series; mutable cell : 'cell option }
type counter = int ref handle
type histo = hist_cell handle

let handle t labels name = { reg = t; series = { name; labels = canonical labels }; cell = None }
let counter t ?(labels = []) name : counter = handle t labels name
let histo t ?(labels = []) name : histo = handle t labels name

let bind h lookup =
  let c = lookup h.reg h.series.name h.series.labels in
  h.cell <- Some c;
  c

let add (c : counter) by =
  let r = match c.cell with Some r -> r | None -> bind c counter_cell in
  r := !r + by

(* [count] equal values at once.  Sim quantities are integers, so
   [count *. v] adds to [sum] exactly what [count] separate additions
   would. *)
let record_many (h : histo) ~count v =
  let cell = match h.cell with Some c -> c | None -> bind h hist_cell in
  cell.h_count <- cell.h_count + count;
  let f = cell.h_f in
  f.h_sum <- f.h_sum +. (float_of_int count *. v);
  if v < f.h_min then f.h_min <- v;
  if v > f.h_max then f.h_max <- v;
  let i = bucket_index v in
  cell.h_buckets.(i) <- cell.h_buckets.(i) + count

let record h v = record_many h ~count:1 v
let incr t ?(by = 1) ?labels name = add (counter t ?labels name) by
let observe t ?labels name v = record (histo t ?labels name) v

let counter_value t ?(labels = []) name =
  match Hashtbl.find_opt t.counters (render name (canonical labels)) with
  | Some (_, r) -> !r
  | None -> 0

let snapshot cell =
  {
    count = cell.h_count;
    sum = cell.h_f.h_sum;
    min = cell.h_f.h_min;
    max = cell.h_f.h_max;
    buckets = Array.copy cell.h_buckets;
  }

let histogram t ?(labels = []) name =
  Option.map
    (fun (_, c) -> snapshot c)
    (Hashtbl.find_opt t.histograms (render name (canonical labels)))

let sorted_seq tbl =
  Hashtbl.fold (fun key (series, v) acc -> (key, series, v) :: acc) tbl []
  |> List.sort (fun (k1, _, _) (k2, _, _) -> String.compare k1 k2)

let fold_counters t ~init ~f =
  List.fold_left
    (fun acc (_, s, r) -> f acc ~name:s.name ~labels:s.labels !r)
    init (sorted_seq t.counters)

let fold_histograms t ~init ~f =
  List.fold_left
    (fun acc (_, s, c) -> f acc ~name:s.name ~labels:s.labels (snapshot c))
    init (sorted_seq t.histograms)

let labels_json labels = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels)

let to_json t =
  let counters =
    fold_counters t ~init:[] ~f:(fun acc ~name ~labels v ->
        Json.Obj [ ("name", Json.Str name); ("labels", labels_json labels); ("value", Json.Int v) ]
        :: acc)
    |> List.rev
  in
  let histograms =
    fold_histograms t ~init:[] ~f:(fun acc ~name ~labels h ->
        let buckets =
          Array.to_list
            (Array.mapi
               (fun i c ->
                 if c = 0 then None
                 else
                   Some
                     (Json.Obj
                        [
                          ( "le",
                            if Float.is_finite bucket_bounds.(i) then Json.Float bucket_bounds.(i)
                            else Json.Str "+inf" );
                          ("count", Json.Int c);
                        ]))
               h.buckets)
          |> List.filter_map Fun.id
        in
        Json.Obj
          [
            ("name", Json.Str name);
            ("labels", labels_json labels);
            ("count", Json.Int h.count);
            ("sum", Json.Float h.sum);
            ("min", if h.count = 0 then Json.Null else Json.Float h.min);
            ("max", if h.count = 0 then Json.Null else Json.Float h.max);
            ("buckets", Json.List buckets);
          ]
        :: acc)
    |> List.rev
  in
  Json.Obj [ ("counters", Json.List counters); ("histograms", Json.List histograms) ]

(* ------------------------------ merging ------------------------------ *)

let merge_into ~into src =
  List.iter
    (fun (_, s, r) -> incr into ~by:!r ~labels:s.labels s.name)
    (sorted_seq src.counters);
  List.iter
    (fun (_, s, c) ->
      (* s.labels is canonical already: it was canonicalised on insert. *)
      let dst = hist_cell into s.name s.labels in
      dst.h_count <- dst.h_count + c.h_count;
      dst.h_f.h_sum <- dst.h_f.h_sum +. c.h_f.h_sum;
      if c.h_f.h_min < dst.h_f.h_min then dst.h_f.h_min <- c.h_f.h_min;
      if c.h_f.h_max > dst.h_f.h_max then dst.h_f.h_max <- c.h_f.h_max;
      Array.iteri (fun i v -> dst.h_buckets.(i) <- dst.h_buckets.(i) + v) c.h_buckets)
    (sorted_seq src.histograms)

(* ------------------------- domain sharding --------------------------- *)

module Sharded = struct
  type registry = t

  let fresh_registry : unit -> registry = create

  (* Each Exec worker owns one private shard: the hot path (incr/observe
     on a claimed shard) is the plain single-domain mutation above — no
     Mutex, no Atomic, no fence.  Safety rests on the Exec protocol, not
     on synchronisation: worker w touches only shard w, and Domain.join
     orders every shard write before the merge reads them.

     The claim flags below are the one sanctioned cross-domain primitive
     (see the coinlint domain-hygiene allowance): an Atomic.exchange
     turns "two workers were handed the same shard" — a silent Hashtbl
     race under the no-sync design — into an immediate exception at
     campaign start. *)
  type t = { shards : registry array; claimed : bool Atomic.t array }

  let create ~workers =
    if workers <= 0 then invalid_arg "Obs.Metrics.Sharded.create: workers must be positive";
    {
      shards = Array.init workers (fun _ -> fresh_registry ());
      claimed = Array.init workers (fun _ -> Atomic.make false);
    }

  let workers t = Array.length t.shards

  let check t w fn =
    if w < 0 || w >= Array.length t.shards then
      invalid_arg
        (Printf.sprintf "Obs.Metrics.Sharded.%s: worker %d out of range (workers = %d)" fn w
           (Array.length t.shards))

  let shard t w =
    check t w "shard";
    t.shards.(w)

  let claim t w =
    check t w "claim";
    if Atomic.exchange t.claimed.(w) true then
      invalid_arg
        (Printf.sprintf
           "Obs.Metrics.Sharded.claim: shard %d already claimed (two workers, or two \
            concurrent campaigns sharing one registry)"
           w);
    t.shards.(w)

  let release_all t = Array.iter (fun c -> Atomic.set c false) t.claimed

  let merged t =
    let out = fresh_registry () in
    Array.iter (fun s -> merge_into ~into:out s) t.shards;
    out
end
