(* Observability layer: JSON round-trips, histogram bucket edges, span
   nesting, probe passivity and exporter determinism across equal seeds. *)

let n = 16
let params = lazy (Core.Params.make_exn ~strict:false ~epsilon:0.25 ~d:0.04 ~lambda:n ~n ())
let keyring = lazy (Vrf.Keyring.create ~backend:Vrf.Mock ~n ~seed:"obs-test" ())

let run_ba ?probe ~seed () =
  let inputs = Array.init n (fun p -> (p + seed) mod 2) in
  Core.Runner.run_ba ?probe ~keyring:(Lazy.force keyring) ~params:(Lazy.force params) ~inputs
    ~seed ()

(* ------------------------------- json ------------------------------- *)

let roundtrip v =
  match Obs.Json.of_string (Obs.Json.to_string v) with
  | Ok v' -> v'
  | Error e -> Alcotest.failf "reparse failed: %s" e

let test_json_roundtrip () =
  let open Obs.Json in
  let values =
    [
      Null;
      Bool true;
      Bool false;
      Int 0;
      Int (-42);
      Int max_int;
      Int min_int;
      Float 0.5;
      Float (-1.25e-3);
      Float 1e100;
      Float 0.1;
      Float (1.0 /. 3.0);
      Str "";
      Str "plain";
      Str "esc \" \\ \n \t \r \x0c \b quotes";
      Str "unicode: \xc3\xa9\xe2\x82\xac";
      List [];
      List [ Int 1; Str "two"; Null ];
      Obj [];
      Obj [ ("a", Int 1); ("nested", Obj [ ("xs", List [ Bool false; Float 2.5 ]) ]) ];
    ]
  in
  List.iter (fun v -> Alcotest.(check bool) (to_string v) true (roundtrip v = v)) values

let test_json_single_line () =
  let v =
    Obs.Json.Obj [ ("s", Obs.Json.Str "line1\nline2"); ("l", Obs.Json.List [ Obs.Json.Int 1 ]) ]
  in
  Alcotest.(check bool) "no raw newline in output" false
    (String.contains (Obs.Json.to_string v) '\n')

let test_json_nonfinite_floats () =
  List.iter
    (fun f -> Alcotest.(check string) "emitted as null" "null" (Obs.Json.to_string (Obs.Json.Float f)))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Obs.Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted invalid input %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "tru"; "\"unterminated"; "1 2"; "{\"a\" 1}"; "nul" ]

let test_json_accessors () =
  let doc = Obs.Json.of_string_exn {|{"a": 1, "b": "x", "c": [1, 2], "d": 2.5}|} in
  let open Obs.Json in
  Alcotest.(check (option int)) "int member" (Some 1) (Option.bind (member "a" doc) to_int_opt);
  Alcotest.(check (option string)) "str member" (Some "x")
    (Option.bind (member "b" doc) to_string_opt);
  Alcotest.(check int) "list member" 2
    (List.length (match member "c" doc with Some l -> to_list l | None -> []));
  Alcotest.(check (option (float 0.0))) "float member" (Some 2.5)
    (Option.bind (member "d" doc) to_float_opt);
  Alcotest.(check bool) "missing member" true (member "zz" doc = None)

(* The per-character escaper the emitter used before it copied clean runs
   in one go: the reference the fast path must reproduce byte for byte. *)
let reference_escape s =
  let buf = Buffer.create 16 in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let test_json_escape_differential () =
  let check s =
    Alcotest.(check string) (String.escaped s) (reference_escape s)
      (Obs.Json.to_string (Obs.Json.Str s))
  in
  for b = 0 to 255 do
    let c = String.make 1 (Char.chr b) in
    check c;
    check ("ab" ^ c ^ "cd" ^ c)
  done;
  let rng = Random.State.make [| 2026 |] in
  let skewed = "\"\\\n\r\t\b\012\001\031 aZ~\127\200\255" in
  for _ = 1 to 2000 do
    let len = Random.State.int rng 40 in
    check (String.init len (fun _ -> Char.chr (Random.State.int rng 256)));
    check (String.init len (fun _ -> skewed.[Random.State.int rng (String.length skewed)]))
  done

let test_json_int_rendering () =
  let rng = Random.State.make [| 7 |] in
  let values =
    [ 0; 1; 9; 10; 99; 100; -1; -9; -10; max_int; min_int; max_int - 1; min_int + 1 ]
    @ List.init 500 (fun _ -> Random.State.bits rng - Random.State.bits rng)
  in
  List.iter
    (fun i ->
      Alcotest.(check string) (string_of_int i) (string_of_int i)
        (Obs.Json.to_string (Obs.Json.Int i)))
    values

(* ------------------------------ metrics ------------------------------ *)

let test_bucket_edges () =
  let open Obs.Metrics in
  (* A value lands in the first bucket with v <= bound: exact powers of
     two land on their own bound, the next representable value above
     spills into the following bucket. *)
  Alcotest.(check int) "1.0 -> bucket 0" 0 (bucket_index 1.0);
  Alcotest.(check int) "2.0 -> bucket 1" 1 (bucket_index 2.0);
  Alcotest.(check int) "2.0001 -> bucket 2" 2 (bucket_index 2.0001);
  Alcotest.(check int) "1024 -> bucket 10" 10 (bucket_index 1024.0);
  Alcotest.(check int) "0 -> first bucket" 0 (bucket_index 0.0);
  let last = Array.length bucket_bounds - 1 in
  Alcotest.(check int) "2^24 -> last finite bucket" (last - 1)
    (bucket_index (Float.of_int (1 lsl 24)));
  Alcotest.(check int) "huge -> overflow" last (bucket_index 1e30);
  Alcotest.(check bool) "overflow bound is +inf" true
    (Float.is_integer bucket_bounds.(last - 1) && bucket_bounds.(last) = Float.infinity)

let test_histogram_counts () =
  let m = Obs.Metrics.create () in
  List.iter (fun v -> Obs.Metrics.observe m "lat" v) [ 1.0; 2.0; 3.0; 1024.0; 1e30 ];
  match Obs.Metrics.histogram m "lat" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      Alcotest.(check int) "count" 5 h.Obs.Metrics.count;
      Alcotest.(check (float 1e-9)) "sum" (1.0 +. 2.0 +. 3.0 +. 1024.0 +. 1e30) h.Obs.Metrics.sum;
      Alcotest.(check (float 0.0)) "min" 1.0 h.Obs.Metrics.min;
      Alcotest.(check (float 0.0)) "max" 1e30 h.Obs.Metrics.max;
      Alcotest.(check int) "bucket 0 holds 1.0" 1 h.Obs.Metrics.buckets.(0);
      Alcotest.(check int) "bucket 1 holds 2.0" 1 h.Obs.Metrics.buckets.(1);
      Alcotest.(check int) "bucket 2 holds 3.0" 1 h.Obs.Metrics.buckets.(2);
      Alcotest.(check int) "overflow holds 1e30" 1
        h.Obs.Metrics.buckets.(Array.length h.Obs.Metrics.buckets - 1)

let test_labels_canonical () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m ~labels:[ ("a", "1"); ("b", "2") ] "c";
  Obs.Metrics.incr m ~labels:[ ("b", "2"); ("a", "1") ] "c";
  Alcotest.(check int) "label order never splits a series" 2
    (Obs.Metrics.counter_value m ~labels:[ ("a", "1"); ("b", "2") ] "c");
  Alcotest.(check int) "different labels are a different series" 0
    (Obs.Metrics.counter_value m ~labels:[ ("a", "1") ] "c")

let test_bucket_index_reference () =
  (* the linear scan the binary search replaced *)
  let bounds = Obs.Metrics.bucket_bounds in
  let reference v =
    let rec go i = if i >= Array.length bounds - 1 || v <= bounds.(i) then i else go (i + 1) in
    go 0
  in
  let rng = Random.State.make [| 11 |] in
  let values =
    [ Float.nan; Float.infinity; Float.neg_infinity; -1.0; 0.0; 0.5; 16777216.0; 16777217.0 ]
    @ List.init 25 (fun i -> Float.of_int (1 lsl i))
    @ List.init 25 (fun i -> Float.succ (Float.of_int (1 lsl i)))
    @ List.init 1000 (fun _ -> Float.of_int (Random.State.int rng (1 lsl 26)))
    @ List.init 200 (fun _ -> Random.State.float rng 100.0)
  in
  List.iter
    (fun v ->
      Alcotest.(check int) (Printf.sprintf "%h" v) (reference v) (Obs.Metrics.bucket_index v))
    values

let test_handles () =
  let open Obs.Metrics in
  let m = create () in
  let c = counter m ~labels:[ ("b", "2"); ("a", "1") ] "c" in
  let idle = counter m "never" and idle_h = histo m "never_h" in
  ignore (idle, idle_h);
  Alcotest.(check int) "an unfired handle adds no series" 0
    (fold_counters m ~init:0 ~f:(fun n ~name:_ ~labels:_ _ -> n + 1));
  incr m ~labels:[ ("a", "1"); ("b", "2") ] "c";
  add c 5;
  add (counter m ~labels:[ ("a", "1"); ("b", "2") ] "c") 2;
  Alcotest.(check int) "handles and incr share one series" 8
    (counter_value m ~labels:[ ("a", "1"); ("b", "2") ] "c");
  Alcotest.(check bool) "unfired histogram handle adds no series" true
    (histogram m "never_h" = None);
  (* record_many is [count] records for integer values *)
  let one = create () and many = create () in
  let h = histo many "w" in
  List.iter
    (fun (count, v) ->
      for _ = 1 to count do
        observe one "w" v
      done;
      record_many h ~count v)
    [ (128, 3.0); (1, 40.0); (64, 1.0); (7, 1e6) ];
  Alcotest.(check string) "record_many = repeated record"
    (Obs.Json.to_string (to_json one))
    (Obs.Json.to_string (to_json many))

(* ------------------------------- spans ------------------------------- *)

let test_span_nesting () =
  let clock, set = Obs.Span.manual_clock () in
  let t = Obs.Span.create clock in
  set 0 0.0;
  Obs.Span.with_span t "outer" (fun () ->
      set 1 1.0;
      Obs.Span.with_span t ~pid:3 "inner" (fun () -> set 2 2.0);
      Alcotest.(check int) "back to one open span" 1 (Obs.Span.nesting t);
      set 5 5.0);
  let spans = Obs.Span.completed t in
  Alcotest.(check (list string)) "completion order: inner closes first" [ "inner"; "outer" ]
    (List.map (fun s -> s.Obs.Span.name) spans);
  (match spans with
  | [ inner; outer ] ->
      Alcotest.(check int) "inner nest" 1 inner.Obs.Span.nest;
      Alcotest.(check int) "outer nest" 0 outer.Obs.Span.nest;
      Alcotest.(check bool) "inner pid recorded" true (inner.Obs.Span.pid = Some 3);
      Alcotest.(check int) "inner begin step" 1 inner.Obs.Span.begin_step;
      Alcotest.(check int) "inner end step" 2 inner.Obs.Span.end_step;
      Alcotest.(check int) "outer spans the whole window" 5 outer.Obs.Span.end_step
  | _ -> Alcotest.fail "expected two spans");
  Alcotest.check_raises "end with nothing open"
    (Invalid_argument "Obs.Span.end_span: no open span") (fun () -> Obs.Span.end_span t)

let test_span_closes_on_raise () =
  let clock, set = Obs.Span.manual_clock () in
  let t = Obs.Span.create clock in
  set 0 0.0;
  (try Obs.Span.with_span t "doomed" (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "span recorded despite the raise" 1 (List.length (Obs.Span.completed t));
  Alcotest.(check int) "nothing left open" 0 (Obs.Span.nesting t)

(* --------------------------- probe passivity --------------------------- *)

let outcome_fingerprint (o : Core.Runner.outcome) =
  Format.asprintf "%a|decisions=%s" Core.Runner.pp_outcome o
    (String.concat ","
       (List.map (fun (p, d) -> Printf.sprintf "%d:%d" p d) o.Core.Runner.decisions))

let test_probe_is_passive () =
  for seed = 1 to 4 do
    let plain = run_ba ~seed () in
    let metrics = Obs.Metrics.create () in
    let observed =
      run_ba ~probe:(fun eng -> Core.Instrument.attach_ba eng ~metrics) ~seed ()
    in
    Alcotest.(check string)
      (Printf.sprintf "seed %d: outcome unchanged under instrumentation" seed)
      (outcome_fingerprint plain) (outcome_fingerprint observed);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: the probe did observe traffic" seed)
      true
      (Obs.Metrics.fold_counters metrics ~init:0 ~f:(fun acc ~name:_ ~labels:_ v -> acc + v) > 0)
  done

let test_metrics_doc_deterministic () =
  let doc seed =
    let metrics = Obs.Metrics.create () in
    let o = run_ba ~probe:(fun eng -> Core.Instrument.attach_ba eng ~metrics) ~seed () in
    Obs.Json.to_string
      (Core.Instrument.metrics_doc ~params:(Lazy.force params)
         ~outcomes:[ Core.Instrument.outcome_json o ] ~metrics ())
  in
  Alcotest.(check string) "equal seeds produce byte-identical documents" (doc 11) (doc 11);
  Alcotest.(check bool) "different seeds differ" true (doc 11 <> doc 12)

let test_jsonl_deterministic () =
  let lines seed =
    let trace = Sim.Trace.create () in
    let (_ : Core.Runner.outcome) =
      run_ba ~probe:(fun eng -> Sim.Trace.attach trace eng) ~seed ()
    in
    Obs.Export.jsonl_to_string (Obs.Export.trace_jsonl ~run:0 trace)
  in
  let a = lines 21 and b = lines 21 in
  Alcotest.(check string) "equal seeds produce byte-identical JSONL" a b;
  (* Every line must reparse on its own. *)
  String.split_on_char '\n' a
  |> List.filter (fun l -> l <> "")
  |> List.iter (fun l ->
         match Obs.Json.of_string l with
         | Ok _ -> ()
         | Error e -> Alcotest.failf "bad JSONL line %S: %s" l e)

let test_chrome_trace_shape () =
  let trace = Sim.Trace.create () in
  let metrics = Obs.Metrics.create () in
  let (_ : Core.Runner.outcome) =
    run_ba
      ~probe:(fun eng ->
        Core.Instrument.attach_ba eng ~metrics;
        Sim.Trace.attach trace eng)
      ~seed:31 ()
  in
  let doc = roundtrip (Obs.Export.chrome_trace (Obs.Export.chrome_of_trace ~pid:0 trace)) in
  let events =
    match Obs.Json.member "traceEvents" doc with Some l -> Obs.Json.to_list l | None -> []
  in
  Alcotest.(check bool) "has events" true (events <> []);
  let phases =
    List.filter_map
      (fun e -> Option.bind (Obs.Json.member "ph" e) Obs.Json.to_string_opt)
      events
  in
  Alcotest.(check bool) "only b/e/i phases from a message trace" true
    (List.for_all (fun p -> p = "b" || p = "e" || p = "i") phases);
  (* Every async end must close an opened id; begins may stay open for
     messages still in flight when the run decided. *)
  let ids p =
    List.filter_map
      (fun e ->
        match Option.bind (Obs.Json.member "ph" e) Obs.Json.to_string_opt with
        | Some p' when p' = p -> Option.bind (Obs.Json.member "id" e) Obs.Json.to_int_opt
        | _ -> None)
      events
  in
  let begins = ids "b" and ends = ids "e" in
  Alcotest.(check bool) "at least one delivery closed" true (ends <> []);
  Alcotest.(check bool) "no end without a begin" true
    (List.for_all (fun id -> List.mem id begins) ends)

(* --------------------------- sharded metrics ------------------------- *)

let test_sharded_claims () =
  Alcotest.check_raises "workers <= 0 rejected"
    (Invalid_argument "Obs.Metrics.Sharded.create: workers must be positive") (fun () ->
      ignore (Obs.Metrics.Sharded.create ~workers:0));
  let s = Obs.Metrics.Sharded.create ~workers:2 in
  Alcotest.(check int) "worker count" 2 (Obs.Metrics.Sharded.workers s);
  let r0 = Obs.Metrics.Sharded.claim s 0 in
  Obs.Metrics.incr r0 "c";
  (* double-claim is the aliasing accident the guard exists to catch *)
  (try
     ignore (Obs.Metrics.Sharded.claim s 0);
     Alcotest.fail "double claim not rejected"
   with Invalid_argument _ -> ());
  (* the other shard is still claimable, and release_all resets both *)
  ignore (Obs.Metrics.Sharded.claim s 1);
  Obs.Metrics.Sharded.release_all s;
  let r0' = Obs.Metrics.Sharded.claim s 0 in
  Obs.Metrics.incr r0' "c";
  (try
     ignore (Obs.Metrics.Sharded.shard s 2);
     Alcotest.fail "out-of-range shard not rejected"
   with Invalid_argument _ -> ());
  Alcotest.(check string) "claims do not reset counts: both incrs merged"
    (Obs.Json.to_string
       (Obs.Metrics.to_json
          (let direct = Obs.Metrics.create () in
           Obs.Metrics.incr direct ~by:2 "c";
           direct)))
    (Obs.Json.to_string (Obs.Metrics.to_json (Obs.Metrics.Sharded.merged s)))

(* Merging shards must reproduce exactly what a single registry would
   have recorded, with counters and histograms interleaved across
   workers. *)
let test_sharded_merge_equals_direct () =
  let s = Obs.Metrics.Sharded.create ~workers:3 in
  let direct = Obs.Metrics.create () in
  for i = 0 to 29 do
    let shard = Obs.Metrics.Sharded.shard s (i mod 3) in
    let labels = [ ("kind", if i mod 2 = 0 then "even" else "odd") ] in
    Obs.Metrics.incr shard ~labels "trials";
    Obs.Metrics.incr direct ~labels "trials";
    Obs.Metrics.observe shard ~labels "words" (float_of_int (i * i));
    Obs.Metrics.observe direct ~labels "words" (float_of_int (i * i))
  done;
  Alcotest.(check string) "merged = direct"
    (Obs.Json.to_string (Obs.Metrics.to_json direct))
    (Obs.Json.to_string (Obs.Metrics.to_json (Obs.Metrics.Sharded.merged s)))

(* --------------------------- bench compare --------------------------- *)

let bench_doc rows =
  let open Obs.Json in
  Obj
    [
      ("schema", Str Obs.Export.bench_schema);
      ( "rows",
        List
          (List.map
             (fun (table, name, ns) ->
               Obj [ ("table", Str table); ("name", Str name); ("ns_per_op", Float ns) ])
             rows) );
    ]

let test_bench_compare () =
  let old_doc =
    bench_doc [ ("b1", "sha", 100.0); ("b1", "vrf", 200.0); ("scaling", "ignored", 1.0) ]
  in
  let new_doc =
    bench_doc [ ("b1", "sha", 110.0); ("b1", "vrf", 300.0); ("b1", "extra", 5.0) ]
  in
  match Obs.Export.bench_compare ~threshold:0.25 old_doc new_doc with
  | Error e -> Alcotest.failf "compare failed: %s" e
  | Ok deltas ->
      (* rows are paired by name; rows present on only one side skipped *)
      Alcotest.(check (list string)) "paired rows" [ "sha"; "vrf" ]
        (List.map (fun d -> d.Obs.Export.cmp_name) deltas);
      let sha = List.nth deltas 0 and vrf = List.nth deltas 1 in
      Alcotest.(check bool) "+10% under 25% threshold" false sha.Obs.Export.cmp_regressed;
      Alcotest.(check bool) "+50% over 25% threshold" true vrf.Obs.Export.cmp_regressed;
      Alcotest.(check (float 1e-9)) "ratio" 1.5 vrf.Obs.Export.cmp_ratio

let test_bench_compare_errors () =
  let ok = bench_doc [ ("b1", "sha", 100.0) ] in
  let expect_error what old_doc new_doc =
    match Obs.Export.bench_compare ~threshold:0.25 old_doc new_doc with
    | Ok _ -> Alcotest.failf "%s: expected Error" what
    | Error _ -> ()
  in
  expect_error "old wrong schema" (Obs.Json.Obj [ ("schema", Obs.Json.Str "x") ]) ok;
  expect_error "new missing schema" ok (Obs.Json.Obj []);
  expect_error "old without b1 rows" (bench_doc [ ("scaling", "s", 1.0) ]) ok;
  expect_error "new without b1 rows" ok (bench_doc []);
  List.iter
    (fun threshold ->
      Alcotest.check_raises
        (Printf.sprintf "threshold %f rejected" threshold)
        (Invalid_argument "Export.bench_compare: threshold must be finite and >= 0")
        (fun () -> ignore (Obs.Export.bench_compare ~threshold ok ok)))
    [ -0.1; Float.nan; Float.infinity ]

(* ------------------------- per-worker tracks ------------------------- *)

let test_chrome_worker_tracks () =
  let clock, tick = Obs.Span.manual_clock () in
  let rec_ = Obs.Span.create clock in
  tick 1 0.1;
  Obs.Span.with_span rec_ ~pid:7 "trial" (fun () -> tick 2 0.2);
  (* default: the span's own pid labels the track *)
  let tid_of ev =
    match Obs.Json.member "tid" ev with Some (Obs.Json.Int t) -> t | _ -> -1
  in
  (match Obs.Export.chrome_of_spans ~pid:0 rec_ with
  | [ ev ] -> Alcotest.(check int) "span pid becomes tid" 7 (tid_of ev)
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs));
  (* explicit ~tid (the Exec worker slot) overrides it *)
  (match Obs.Export.chrome_of_spans ~pid:0 ~tid:3 rec_ with
  | [ ev ] -> Alcotest.(check int) "explicit tid wins" 3 (tid_of ev)
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs));
  (* thread_name metadata event names the track in the viewer *)
  let meta = Obs.Export.chrome_thread_name ~pid:0 ~tid:3 "worker 3" in
  let str k =
    match Obs.Json.member k meta with Some (Obs.Json.Str s) -> s | _ -> "?"
  in
  Alcotest.(check string) "metadata phase" "M" (str "ph");
  Alcotest.(check string) "metadata name" "thread_name" (str "name");
  Alcotest.(check int) "metadata tid" 3 (tid_of meta);
  match Obs.Json.member "args" meta with
  | Some args ->
      Alcotest.(check string) "track label" "worker 3"
        (match Obs.Json.member "name" args with Some (Obs.Json.Str s) -> s | _ -> "?")
  | None -> Alcotest.fail "thread_name without args"

let suite =
  [
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json single line" `Quick test_json_single_line;
    Alcotest.test_case "json non-finite floats" `Quick test_json_nonfinite_floats;
    Alcotest.test_case "json parse errors" `Quick test_json_parse_errors;
    Alcotest.test_case "json accessors" `Quick test_json_accessors;
    Alcotest.test_case "json escape = per-char reference" `Quick test_json_escape_differential;
    Alcotest.test_case "json int rendering" `Quick test_json_int_rendering;
    Alcotest.test_case "bucket edges" `Quick test_bucket_edges;
    Alcotest.test_case "histogram counts" `Quick test_histogram_counts;
    Alcotest.test_case "labels canonical" `Quick test_labels_canonical;
    Alcotest.test_case "bucket index = linear reference" `Quick test_bucket_index_reference;
    Alcotest.test_case "counter and histogram handles" `Quick test_handles;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span closes on raise" `Quick test_span_closes_on_raise;
    Alcotest.test_case "probe is passive" `Quick test_probe_is_passive;
    Alcotest.test_case "metrics doc deterministic" `Quick test_metrics_doc_deterministic;
    Alcotest.test_case "jsonl deterministic" `Quick test_jsonl_deterministic;
    Alcotest.test_case "chrome trace shape" `Quick test_chrome_trace_shape;
    Alcotest.test_case "sharded claim guard" `Quick test_sharded_claims;
    Alcotest.test_case "sharded merge equals direct" `Quick test_sharded_merge_equals_direct;
    Alcotest.test_case "bench compare deltas" `Quick test_bench_compare;
    Alcotest.test_case "bench compare errors" `Quick test_bench_compare_errors;
    Alcotest.test_case "chrome per-worker tracks" `Quick test_chrome_worker_tracks;
  ]
