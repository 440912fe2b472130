let build_exn name rows ~inputs =
  match Dfg.Graph.of_ops ~inputs rows with
  | Ok g -> g
  | Error d ->
      (* The tables below are static data; a rejection here is a programming
         error in this file, not a runtime input condition. *)
      invalid_arg
        (Printf.sprintf "workload %s is invalid: %s" name (Diag.message d))

let op name kind args = (name, kind, args, [])
let gop name kind args guards = (name, kind, args, guards)

let tseng () =
  (* Structured after the FACET/Tseng example: one op of each of
     [* - = & |] plus additions whose concurrency depends on the budget —
     T=4 forces two adders, T=5 fits one of every unit (Table 1, ex. 1). *)
  build_exn "tseng"
    ~inputs:[ "i1"; "i2"; "i3"; "i4"; "i5"; "i6"; "i7"; "i8" ]
    [
      op "t1" Dfg.Op.Add [ "i1"; "i2" ];
      op "t2" Dfg.Op.Add [ "i3"; "i4" ];
      op "t3" Dfg.Op.Mul [ "t1"; "t2" ];
      op "t4" Dfg.Op.Or [ "i5"; "i6" ];
      op "t5" Dfg.Op.Sub [ "t3"; "t4" ];
      op "t6" Dfg.Op.And [ "t1"; "i7" ];
      op "t7" Dfg.Op.Eq [ "t5"; "t6" ];
    ]

let chained_sum () =
  (* Pure add/subtract chains: with a clock period fitting two ALU delays,
     chaining halves the schedule depth (Table 1, ex. 2, feature C). *)
  build_exn "chained_sum"
    ~inputs:[ "a"; "b"; "c"; "d"; "e"; "f" ]
    [
      op "t1" Dfg.Op.Add [ "a"; "b" ];
      op "t2" Dfg.Op.Sub [ "t1"; "c" ];
      op "t3" Dfg.Op.Add [ "t2"; "d" ];
      op "t4" Dfg.Op.Sub [ "t3"; "e" ];
      op "t5" Dfg.Op.Add [ "c"; "d" ];
      op "t6" Dfg.Op.Sub [ "t5"; "f" ];
      op "t7" Dfg.Op.Add [ "t4"; "t6" ];
    ]

let diffeq () =
  build_exn "diffeq"
    ~inputs:[ "x"; "y"; "u"; "dx"; "a"; "three" ]
    [
      op "m1" Dfg.Op.Mul [ "three"; "x" ];
      op "m2" Dfg.Op.Mul [ "u"; "dx" ];
      op "m3" Dfg.Op.Mul [ "three"; "y" ];
      op "m4" Dfg.Op.Mul [ "m1"; "m2" ];
      op "m5" Dfg.Op.Mul [ "m3"; "dx" ];
      op "m6" Dfg.Op.Mul [ "u"; "dx" ];
      op "s1" Dfg.Op.Sub [ "u"; "m4" ];
      op "s2" Dfg.Op.Sub [ "s1"; "m5" ];
      op "a1" Dfg.Op.Add [ "x"; "dx" ];
      op "a2" Dfg.Op.Add [ "y"; "m6" ];
      op "c1" Dfg.Op.Lt [ "a1"; "a" ];
    ]

let facet () =
  build_exn "facet"
    ~inputs:[ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ]
    [
      op "t1" Dfg.Op.Add [ "a"; "b" ];
      op "t2" Dfg.Op.Sub [ "c"; "d" ];
      op "t3" Dfg.Op.And [ "t1"; "e" ];
      op "t4" Dfg.Op.Or [ "t2"; "f" ];
      op "t5" Dfg.Op.Add [ "t3"; "t4" ];
      op "t6" Dfg.Op.Sub [ "t5"; "g" ];
      op "t7" Dfg.Op.And [ "t6"; "h" ];
      op "t8" Dfg.Op.Or [ "t4"; "g" ];
      op "t9" Dfg.Op.Add [ "t8"; "h" ];
    ]

let ar_filter () =
  (* 4-section lattice-ladder: per section one reflection multiply feeding a
     subtract on the forward path and one multiply+add on the backward path;
     ladder taps weighted into the output sum. *)
  let section i fin bin rows =
    let k = Printf.sprintf "k%d" i in
    let t = Printf.sprintf "t%d" i
    and f = Printf.sprintf "f%d" (i - 1)
    and u = Printf.sprintf "u%d" i
    and bn = Printf.sprintf "bn%d" i in
    ( f,
      bn,
      rows
      @ [
          op t Dfg.Op.Mul [ k; bin ];
          op f Dfg.Op.Sub [ fin; t ];
          op u Dfg.Op.Mul [ k; f ];
          op bn Dfg.Op.Add [ bin; u ];
        ] )
  in
  let f4 = "xin" in
  let f3, bn4, rows = section 4 f4 "b3" [] in
  let f2, bn3, rows = section 3 f3 "b2" rows in
  let f1, bn2, rows = section 2 f2 "b1" rows in
  let f0, bn1, rows = section 1 f1 "b0" rows in
  let taps = [ ("w0", "v0", f0); ("w1", "v1", bn1); ("w2", "v2", bn2);
               ("w3", "v3", bn3); ("w4", "v4", bn4) ] in
  let rows =
    rows
    @ List.map (fun (w, v, src) -> op w Dfg.Op.Mul [ v; src ]) taps
    @ [
        op "y1" Dfg.Op.Add [ "w0"; "w1" ];
        op "y2" Dfg.Op.Add [ "y1"; "w2" ];
        op "y3" Dfg.Op.Add [ "y2"; "w3" ];
        op "y4" Dfg.Op.Add [ "y3"; "w4" ];
      ]
  in
  build_exn "ar_filter"
    ~inputs:
      [ "xin"; "k1"; "k2"; "k3"; "k4"; "b0"; "b1"; "b2"; "b3";
        "v0"; "v1"; "v2"; "v3"; "v4" ]
    rows

let fir16 () =
  let taps = List.init 16 Fun.id in
  let products =
    List.map
      (fun i ->
        op
          (Printf.sprintf "p%d" i)
          Dfg.Op.Mul
          [ Printf.sprintf "c%d" i; Printf.sprintf "x%d" i ])
      taps
  in
  (* Balanced adder tree over p0..p15; an odd leftover carries upward. *)
  let rec tree level names rows =
    match names with
    | [] | [ _ ] -> rows
    | _ ->
        let rec pair acc idx = function
          | a :: b :: rest ->
              let s = Printf.sprintf "s%d_%d" level idx in
              pair ((s, op s Dfg.Op.Add [ a; b ]) :: acc) (idx + 1) rest
          | leftover -> (List.rev acc, leftover)
        in
        let made, leftover = pair [] 0 names in
        let next = List.map fst made @ leftover in
        tree (level + 1) next (rows @ List.map snd made)
  in
  let names = List.map (fun i -> Printf.sprintf "p%d" i) taps in
  let rows = products @ tree 1 names [] in
  build_exn "fir16"
    ~inputs:
      (List.map (fun i -> Printf.sprintf "x%d" i) taps
      @ List.map (fun i -> Printf.sprintf "c%d" i) taps)
    rows

let dct8 () =
  let rot prefix a b ca cb rows =
    (* plane rotation: (a*ca + b*cb, a*cb - b*ca) *)
    let m1 = prefix ^ "m1" and m2 = prefix ^ "m2"
    and m3 = prefix ^ "m3" and m4 = prefix ^ "m4"
    and o1 = prefix ^ "p" and o2 = prefix ^ "q" in
    ( o1,
      o2,
      rows
      @ [
          op m1 Dfg.Op.Mul [ a; ca ];
          op m2 Dfg.Op.Mul [ b; cb ];
          op o1 Dfg.Op.Add [ m1; m2 ];
          op m3 Dfg.Op.Mul [ a; cb ];
          op m4 Dfg.Op.Mul [ b; ca ];
          op o2 Dfg.Op.Sub [ m3; m4 ];
        ] )
  in
  let stage1 =
    List.concat_map
      (fun i ->
        let x = Printf.sprintf "x%d" i and y = Printf.sprintf "x%d" (7 - i) in
        [
          op (Printf.sprintf "s%d" i) Dfg.Op.Add [ x; y ];
          op (Printf.sprintf "d%d" i) Dfg.Op.Sub [ x; y ];
        ])
      [ 0; 1; 2; 3 ]
  in
  let even =
    [
      op "t0" Dfg.Op.Add [ "s0"; "s3" ];
      op "t1" Dfg.Op.Add [ "s1"; "s2" ];
      op "t2" Dfg.Op.Sub [ "s0"; "s3" ];
      op "t3" Dfg.Op.Sub [ "s1"; "s2" ];
      op "X0" Dfg.Op.Add [ "t0"; "t1" ];
      op "X4" Dfg.Op.Sub [ "t0"; "t1" ];
    ]
  in
  let x2, x6, rot1 = rot "r26" "t2" "t3" "c1" "c2" [] in
  let a1, a7, rot2 = rot "r17" "d0" "d3" "c3" "c4" [] in
  let a3, a5, rot3 = rot "r35" "d1" "d2" "c5" "c6" [] in
  (* x2/x6 are already the final X2/X6 coefficients. *)
  let final =
    [
      op "X1" Dfg.Op.Add [ a1; a3 ];
      op "X3" Dfg.Op.Sub [ a1; a3 ];
      op "X5" Dfg.Op.Add [ a5; a7 ];
      op "X7" Dfg.Op.Sub [ a7; a5 ];
    ]
  in
  ignore x2;
  ignore x6;
  build_exn "dct8"
    ~inputs:
      (List.init 8 (fun i -> Printf.sprintf "x%d" i)
      @ List.init 6 (fun i -> Printf.sprintf "c%d" (i + 1)))
    (stage1 @ even @ rot1 @ rot2 @ rot3 @ final)

let ewf () =
  (* EWF-shaped: four add-multiply-add filter sections in series — the
     multiplications sit ON the critical path, the real elliptic wave
     filter's defining property — plus coefficient-preparation and output
     adds. 26 additions, 8 multiplications; critical path 17 with a
     two-cycle multiplier (the paper's ex. 6 operating point), 13 with a
     single-cycle one. *)
  let section j rows =
    let s i = Printf.sprintf "%s%d" i j in
    let prev = if j = 1 then "x" else Printf.sprintf "d%d" (j - 1) in
    let p_in = if j = 1 then "p1" else s "p" in
    rows
    @ (if j = 1 then []
       else [ op (s "p") Dfg.Op.Add [ s "r"; s "rr" ] ])
    @ [
        op (s "q") Dfg.Op.Add [ s "t"; s "tt" ];
        op (s "e") Dfg.Op.Add [ prev; p_in ];
        op (s "m") Dfg.Op.Mul [ s "e"; s "c" ];
        op (s "m2") Dfg.Op.Mul [ s "e"; s "cc" ];
        op (s "d") Dfg.Op.Add [ s "m"; s "q" ];
        op (s "g") Dfg.Op.Add [ s "m2"; s "d" ];
      ]
  in
  let rows = List.fold_left (fun rows j -> section j rows) [] [ 1; 2; 3; 4 ] in
  let tail =
    [
      op "out" Dfg.Op.Add [ "d4"; "s1" ];
      op "h1" Dfg.Op.Add [ "g1"; "g2" ];
      op "h2" Dfg.Op.Add [ "h1"; "g3" ];
      op "out2" Dfg.Op.Add [ "h2"; "s2" ];
      op "k1" Dfg.Op.Add [ "q2"; "q3" ];
      op "k2" Dfg.Op.Add [ "k1"; "q4" ];
      op "k3" Dfg.Op.Add [ "q1"; "p2" ];
    ]
  in
  let section_inputs =
    List.concat_map
      (fun j ->
        let s i = Printf.sprintf "%s%d" i j in
        [ s "c"; s "cc"; s "t"; s "tt" ]
        @ if j = 1 then [] else [ s "r"; s "rr" ])
      [ 1; 2; 3; 4 ]
  in
  build_exn "ewf"
    ~inputs:([ "x"; "s1"; "s2"; "p1" ] @ section_inputs)
    (rows @ tail)

let biquad () =
  (* Two direct-form-II-transposed biquad sections in cascade:
     y = b0*w + s1;  s1' = b1*w - a1*y + s2;  s2' = b2*w - a2*y
     with w = section input. 10 multiplications, 6 additions,
     4 subtractions per the two sections. *)
  let section j xin rows =
    let s i = Printf.sprintf "%s%d" i j in
    ( s "y",
      rows
      @ [
          op (s "m0") Dfg.Op.Mul [ s "b0"; xin ];
          op (s "y") Dfg.Op.Add [ s "m0"; s "s1" ];
          op (s "m1") Dfg.Op.Mul [ s "b1"; xin ];
          op (s "ma1") Dfg.Op.Mul [ s "a1"; s "y" ];
          op (s "t1") Dfg.Op.Sub [ s "m1"; s "ma1" ];
          op (s "s1n") Dfg.Op.Add [ s "t1"; s "s2" ];
          op (s "m2") Dfg.Op.Mul [ s "b2"; xin ];
          op (s "ma2") Dfg.Op.Mul [ s "a2"; s "y" ];
          op (s "s2n") Dfg.Op.Sub [ s "m2"; s "ma2" ];
        ] )
  in
  let y1, rows = section 1 "xin" [] in
  let _, rows = section 2 y1 rows in
  let inputs =
    "xin"
    :: List.concat_map
         (fun j ->
           List.map
             (fun i -> Printf.sprintf "%s%d" i j)
             [ "b0"; "b1"; "b2"; "a1"; "a2"; "s1"; "s2" ])
         [ 1; 2 ]
  in
  build_exn "biquad" ~inputs rows

let cond_example () =
  build_exn "cond"
    ~inputs:[ "a"; "b"; "c" ]
    [
      op "c1" Dfg.Op.Lt [ "a"; "b" ];
      gop "t1" Dfg.Op.Add [ "a"; "c" ] [ ("c1", true) ];
      gop "t2" Dfg.Op.Add [ "a"; "c" ] [ ("c1", false) ];
      gop "t3" Dfg.Op.Mul [ "t1"; "b" ] [ ("c1", true) ];
      gop "t4" Dfg.Op.Sub [ "t2"; "b" ] [ ("c1", false) ];
      gop "t5" Dfg.Op.Mul [ "t2"; "c" ] [ ("c1", false) ];
    ]

let all () =
  [
    ("ex1", tseng ());
    ("ex2", chained_sum ());
    ("ex3", ar_filter ());
    ("ex4", fir16 ());
    ("ex5", dct8 ());
    ("ex6", ewf ());
  ]

let by_name = function
  | "ex1" | "tseng" -> Some (tseng ())
  | "ex2" | "chained" | "chained_sum" -> Some (chained_sum ())
  | "ex3" | "ar" | "ar_filter" -> Some (ar_filter ())
  | "ex4" | "fir16" | "fir" -> Some (fir16 ())
  | "ex5" | "dct8" | "dct" -> Some (dct8 ())
  | "ex6" | "ewf" -> Some (ewf ())
  | "diffeq" -> Some (diffeq ())
  | "facet" -> Some (facet ())
  | "biquad" -> Some (biquad ())
  | "cond" -> Some (cond_example ())
  | _ -> None
