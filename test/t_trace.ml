(* Trace: event recording, ring-buffer behaviour, forensic queries. *)

open Sim

let run_traced ?(capacity = 100_000) f =
  let eng : int Engine.t = Engine.create ~n:4 ~seed:1 () in
  let trace = Trace.create ~capacity () in
  Trace.attach trace eng;
  f eng;
  ignore (Engine.run eng ~until:(fun () -> false));
  trace

let test_records_send_and_delivery () =
  let trace =
    run_traced (fun eng ->
        for pid = 0 to 3 do
          Engine.set_handler eng pid (fun _ -> ())
        done;
        Engine.broadcast eng ~src:0 ~words:2 7)
  in
  (* 4 sends + 4 deliveries *)
  Alcotest.(check int) "8 events" 8 (Trace.length trace);
  Alcotest.(check int) "4 sends by 0" 4 (Trace.sends_by trace 0);
  Alcotest.(check int) "no drops" 0 (Trace.dropped trace)

let test_deliveries_of () =
  let trace =
    run_traced (fun eng ->
        for pid = 0 to 3 do
          Engine.set_handler eng pid (fun _ -> ())
        done;
        Engine.send eng ~src:1 ~dst:2 ~words:1 0;
        Engine.send eng ~src:1 ~dst:3 ~words:1 0)
  in
  Alcotest.(check (list int)) "message 0 delivered to 2" [ 2 ] (Trace.deliveries_of trace ~id:0);
  Alcotest.(check (list int)) "message 1 delivered to 3" [ 3 ] (Trace.deliveries_of trace ~id:1)

let test_corruption_recorded () =
  let trace =
    run_traced (fun eng ->
        Engine.set_handler eng 0 (fun _ -> ());
        Engine.corrupt_crash eng 2;
        Engine.corrupt_byzantine eng 3 (fun _ -> ()))
  in
  Alcotest.(check (list int)) "corrupted pids" [ 2; 3 ] (Trace.corrupted_pids trace)

let test_ring_buffer_drops_oldest () =
  let trace =
    run_traced ~capacity:5 (fun eng ->
        for pid = 0 to 3 do
          Engine.set_handler eng pid (fun _ -> ())
        done;
        for i = 0 to 9 do
          Engine.send eng ~src:0 ~dst:1 ~words:1 i
        done)
  in
  (* 10 sends + 10 deliveries = 20 events into capacity 5. *)
  Alcotest.(check int) "length capped" 5 (Trace.length trace);
  Alcotest.(check int) "dropped count" 15 (Trace.dropped trace);
  (* The survivors are the 5 newest events. *)
  let all = Trace.events trace in
  Alcotest.(check int) "events list length" 5 (List.length all)

let test_max_depth () =
  let trace =
    run_traced (fun eng ->
        for pid = 0 to 3 do
          Engine.set_handler eng pid (fun e ->
              if pid < 3 then Engine.send eng ~src:pid ~dst:(pid + 1) ~words:1 e.Envelope.payload)
        done;
        Engine.send eng ~src:0 ~dst:1 ~words:1 0)
  in
  Alcotest.(check int) "depth of the chain" 3 (Trace.max_depth trace)

let test_fold_matches_events () =
  let trace =
    run_traced (fun eng ->
        for pid = 0 to 3 do
          Engine.set_handler eng pid (fun _ -> ())
        done;
        Engine.broadcast eng ~src:0 ~words:2 7;
        Engine.corrupt_crash eng 3)
  in
  let via_fold = List.rev (Trace.fold trace ~init:[] ~f:(fun acc e -> e :: acc)) in
  Alcotest.(check bool) "fold visits exactly the events list, oldest first" true
    (via_fold = Trace.events trace);
  let count = Trace.fold trace ~init:0 ~f:(fun n _ -> n + 1) in
  Alcotest.(check int) "fold count = length" (Trace.length trace) count;
  let via_iter = ref [] in
  Trace.iter trace ~f:(fun e -> via_iter := e :: !via_iter);
  Alcotest.(check bool) "iter agrees with fold" true (List.rev !via_iter = via_fold)

let test_fold_after_wraparound () =
  let trace =
    run_traced ~capacity:5 (fun eng ->
        for pid = 0 to 3 do
          Engine.set_handler eng pid (fun _ -> ())
        done;
        for i = 0 to 9 do
          Engine.send eng ~src:0 ~dst:1 ~words:1 i
        done)
  in
  (* After dropping, fold must walk the surviving window oldest-first:
     steps strictly increase across the visited events. *)
  let monotone, _ =
    Trace.fold trace ~init:(true, -1) ~f:(fun (ok, prev) e ->
        let step =
          match e with
          | Trace.Sent { step; _ } | Trace.Delivered { step; _ } | Trace.Corrupted { step; _ } ->
              step
        in
        (ok && step >= prev, step))
  in
  Alcotest.(check bool) "steps non-decreasing after wraparound" true monotone;
  Alcotest.(check int) "fold sees only live slots" 5 (Trace.fold trace ~init:0 ~f:(fun n _ -> n + 1))

let test_attach_does_not_change_execution () =
  let run traced =
    let eng : int Engine.t = Engine.create ~n:4 ~seed:9 () in
    if traced then begin
      let t = Trace.create () in
      Trace.attach t eng
    end;
    let log = ref [] in
    for pid = 0 to 3 do
      Engine.set_handler eng pid (fun e -> log := (pid, e.Envelope.id) :: !log)
    done;
    for i = 0 to 20 do
      Engine.send eng ~src:(i mod 4) ~dst:((i * 3) mod 4) ~words:1 i
    done;
    ignore (Engine.run eng ~until:(fun () -> false));
    !log
  in
  Alcotest.(check bool) "same delivery order" true (run true = run false)

(* The trace rides the engine's compact send hook, so a traced engine
   keeps lazy expansion.  Its events must not depend on how broadcasts are
   expanded: lazy, eager, or eager with each envelope reported on its own
   (what a per-envelope [on_send] observer forces).  The run mixes
   handler-driven broadcasts, unicasts and a mid-run Byzantine corruption;
   the small capacities make the ring wrap inside a single broadcast. *)
let traced_run mode ~capacity seed =
  let n = 13 in
  let expand = match mode with `Eager -> Engine.Eager | `Lazy | `Per_envelope -> Engine.Lazy in
  let eng : int Engine.t = Engine.create ~expand ~n ~seed () in
  let trace = Trace.create ~capacity () in
  Trace.attach trace eng;
  if mode = `Per_envelope then Engine.on_send eng (fun _ -> ());
  for pid = 0 to n - 1 do
    Engine.set_handler eng pid (fun e ->
        let p = e.Envelope.payload in
        if p < 2 && pid mod 3 = 0 then Engine.broadcast eng ~src:pid ~words:(p + 2) (p + 1)
        else if p < 4 && pid mod 4 = 1 then
          Engine.send eng ~src:pid ~dst:((pid + 5) mod n) ~words:1 (p + 1);
        if Engine.step eng = 40 then
          Engine.corrupt_byzantine eng 6 (fun e' ->
              if e'.Envelope.payload = 1 then Engine.broadcast eng ~src:6 ~words:1 9))
  done;
  Engine.broadcast eng ~src:0 ~words:3 0;
  ignore (Engine.run eng ~until:(fun () -> false));
  (Trace.events trace, Trace.length trace, Trace.dropped trace)

let test_expansion_modes_trace_alike () =
  List.iter
    (fun capacity ->
      List.iter
        (fun seed ->
          let what = Printf.sprintf "capacity %d, seed %d" capacity seed in
          let lazy_ = traced_run `Lazy ~capacity seed in
          let events, _, dropped = lazy_ in
          Alcotest.(check bool) (what ^ ": eager = lazy") true
            (traced_run `Eager ~capacity seed = lazy_);
          Alcotest.(check bool) (what ^ ": per-envelope = lazy") true
            (traced_run `Per_envelope ~capacity seed = lazy_);
          if capacity < 13 then
            Alcotest.(check bool) (what ^ ": the ring wrapped") true (dropped > 0)
          else
            Alcotest.(check bool) (what ^ ": a Byzantine broadcast was traced") true
              (List.exists
                 (function Trace.Sent { src = 6; words = 1; _ } -> true | _ -> false)
                 events))
        [ 1; 7; 2026 ])
    [ 1; 5; 12; 100_000 ]

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_pp_smoke () =
  let trace =
    run_traced (fun eng ->
        Engine.set_handler eng 0 (fun _ -> ());
        Engine.set_handler eng 1 (fun _ -> ());
        Engine.send eng ~src:0 ~dst:1 ~words:1 0;
        Engine.corrupt_crash eng 3)
  in
  let s = Format.asprintf "%a" Trace.pp trace in
  Alcotest.(check bool) "mentions SEND" true (contains s "SEND");
  Alcotest.(check bool) "mentions CORRUPT" true (contains s "CORRUPT")

let suite =
  [
    Alcotest.test_case "records sends/deliveries" `Quick test_records_send_and_delivery;
    Alcotest.test_case "deliveries_of" `Quick test_deliveries_of;
    Alcotest.test_case "corruption recorded" `Quick test_corruption_recorded;
    Alcotest.test_case "ring buffer" `Quick test_ring_buffer_drops_oldest;
    Alcotest.test_case "max depth" `Quick test_max_depth;
    Alcotest.test_case "fold matches events" `Quick test_fold_matches_events;
    Alcotest.test_case "expansion modes trace alike" `Quick test_expansion_modes_trace_alike;
    Alcotest.test_case "fold after wraparound" `Quick test_fold_after_wraparound;
    Alcotest.test_case "attach is passive" `Quick test_attach_does_not_change_execution;
    Alcotest.test_case "pp smoke" `Quick test_pp_smoke;
  ]
