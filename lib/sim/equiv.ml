type mismatch = {
  node : string;
  expected : int;
  got : int option;
}

let mismatches ?widths dp ctrl ~env =
  let ( let* ) = Result.bind in
  let g = dp.Rtl.Datapath.graph in
  let* golden = Eval.run g env in
  let* r = Machine.run ?widths dp ctrl ~env in
  Ok
    (List.filter_map
       (fun nd ->
         let name = nd.Dfg.Graph.name in
         if Eval.active g ~values:golden nd.Dfg.Graph.id then
           let expected = Option.get (Eval.value golden name) in
           match List.assoc_opt name r.Machine.values with
           | Some got when got = expected -> None
           | got -> Some { node = name; expected; got }
         else None)
       (Dfg.Graph.nodes g))

let describe m =
  Printf.sprintf "%s: expected %d, got %s" m.node m.expected
    (match m.got with Some v -> string_of_int v | None -> "nothing")

let check ?widths dp ctrl ~env =
  match mismatches ?widths dp ctrl ~env with
  | Error _ as e -> e
  | Ok [] -> Ok ()
  | Ok bad ->
      let shown = List.filteri (fun i _ -> i < 5) bad in
      Error
        (Diag.internal ~code:"sim.mismatch"
           (Printf.sprintf "%d mismatching node(s): %s" (List.length bad)
              (String.concat "; " (List.map describe shown))))

(* Local splitmix-style generator; kept here so the simulator substrate does
   not depend on the workloads library. *)
let mix state =
  let open Int64 in
  let z = add state 0x9E3779B97F4A7C15L in
  let x = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  (z, to_int (shift_right_logical x 3))

let check_random ?(runs = 20) ?(seed = 42) dp ctrl =
  let g = dp.Rtl.Datapath.graph in
  let state = ref (Int64.of_int seed) in
  let draw () =
    let s, v = mix !state in
    state := s;
    (v mod 201) - 100
  in
  let rec go k =
    if k >= runs then Ok ()
    else
      let env = List.map (fun v -> (v, draw ())) (Dfg.Graph.inputs g) in
      match check dp ctrl ~env with
      | Ok () -> go (k + 1)
      | Error e -> Error (Diag.prefix (Printf.sprintf "run %d: " k) e)
  in
  go 0

(* Narrowing safety: the machine with every bus cut down to its inferred
   width must agree with the full-width golden model on every vector drawn
   from the declared input ranges. Directed vectors hit the corners the
   interval analysis reasons about (range endpoints, zero, plus/minus one);
   randomized vectors sample the interior. *)
let check_narrowing ?(runs = 20) ?(seed = 7) ~widths dp ctrl =
  let g = dp.Rtl.Datapath.graph in
  let inputs = Dfg.Graph.inputs g in
  let range v =
    match Dfg.Graph.range_of g v with Some r -> r | None -> (-100, 100)
  in
  let clamp (lo, hi) v = if v < lo then lo else if v > hi then hi else v in
  let directed =
    List.map
      (fun pick -> List.map (fun v -> (v, pick (range v))) inputs)
      [
        fst;
        snd;
        (fun r -> clamp r 0);
        (fun r -> clamp r 1);
        (fun r -> clamp r (-1));
      ]
  in
  let state = ref (Int64.of_int seed) in
  let draw (lo, hi) =
    let s, v = mix !state in
    state := s;
    (* [v] is nonnegative (61 significant bits); [span <= 0] means the
       declared range covers more than the positive int range — sample
       raw. *)
    let span = hi - lo + 1 in
    if span <= 0 then v else lo + (v mod span)
  in
  let rec randoms k acc =
    if k >= runs then List.rev acc
    else randoms (k + 1) (List.map (fun v -> (v, draw (range v))) inputs :: acc)
  in
  let rec go k = function
    | [] -> Ok ()
    | env :: rest -> (
        match check ~widths dp ctrl ~env with
        | Ok () -> go (k + 1) rest
        | Error e ->
            Error (Diag.prefix (Printf.sprintf "narrowing vector %d: " k) e))
  in
  go 0 (directed @ randoms 0 [])
