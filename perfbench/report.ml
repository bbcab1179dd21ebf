type metric = { name : string; value : float; unit : string }
type t = { correct : bool; attempted : int; failed : int; metrics : metric list }

let to_json r =
  Obs.Json.(
    Obj
      [
        ("correct", Bool r.correct);
        ("attempted", Int r.attempted);
        ("failed", Int r.failed);
        ( "metrics",
          Obj
            (List.map
               (fun m -> (m.name, Obj [ ("value", Float m.value); ("unit", Str m.unit) ]))
               r.metrics) );
      ])

let to_line r = Obs.Json.to_string (to_json r)

let ( let* ) = Result.bind

let exact_keys what keys = function
  | Obs.Json.Obj kvs when List.sort compare (List.map fst kvs) = List.sort compare keys -> Ok kvs
  | _ -> Error (Printf.sprintf "%s: want exactly the keys %s" what (String.concat ", " keys))

let field what conv kvs key =
  match Option.bind (List.assoc_opt key kvs) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: bad %S" what key)

let metric_of_json (name, j) =
  let what = "metric " ^ name in
  let* kvs = exact_keys what [ "value"; "unit" ] j in
  let* value = field what Obs.Json.to_float_opt kvs "value" in
  let* unit = field what Obs.Json.to_string_opt kvs "unit" in
  Ok { name; value; unit }

let of_json j =
  let what = "result" in
  let* kvs = exact_keys what [ "correct"; "attempted"; "failed"; "metrics" ] j in
  let* correct =
    field what (function Obs.Json.Bool b -> Some b | _ -> None) kvs "correct"
  in
  let* attempted = field what Obs.Json.to_int_opt kvs "attempted" in
  let* failed = field what Obs.Json.to_int_opt kvs "failed" in
  let* members = field what (function Obs.Json.Obj m -> Some m | _ -> None) kvs "metrics" in
  let names = List.map fst members in
  if List.length (List.sort_uniq compare names) <> List.length names then
    Error "result: duplicated metric name"
  else
    let* metrics =
      List.fold_right
        (fun m acc ->
          let* acc = acc in
          let* m = metric_of_json m in
          Ok (m :: acc))
        members (Ok [])
    in
    Ok { correct; attempted; failed; metrics }
