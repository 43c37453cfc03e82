(* The federated-corporation workload: a heterogeneous document of
   departments whose sections are skewed by kind, so different security
   policies and kind-selective queries bite on different regions. *)

module Dtd = Smoqe_xml.Dtd
module Tree = Smoqe_xml.Tree

let dtd =
  Dtd.create ~root:"corp"
    [
      ("corp", Dtd.Children (Dtd.Star (Dtd.Name "dept")));
      ( "dept",
        Dtd.Children
          (Dtd.Seq
             ( Dtd.Name "dname",
               Dtd.Star
                 (Dtd.Alt
                    ( Dtd.Alt (Dtd.Name "sales", Dtd.Name "audit"),
                      Dtd.Alt (Dtd.Name "hr", Dtd.Name "inventory") )) )) );
      ("sales", Dtd.Children (Dtd.Star (Dtd.Name "order")));
      ( "order",
        Dtd.Children (Dtd.Seq (Dtd.Star (Dtd.Name "item"), Dtd.Name "total")) );
      ("audit", Dtd.Children (Dtd.Star (Dtd.Name "finding")));
      ( "finding",
        Dtd.Children (Dtd.Seq (Dtd.Name "severity", Dtd.Name "note")) );
      ("hr", Dtd.Children (Dtd.Star (Dtd.Name "employee")));
      ( "employee",
        Dtd.Children (Dtd.Seq (Dtd.Name "ename", Dtd.Name "salary")) );
      ("inventory", Dtd.Children (Dtd.Star (Dtd.Name "widget")));
      ("widget", Dtd.Children (Dtd.Seq (Dtd.Name "sku", Dtd.Name "qty")));
      ("dname", Dtd.Mixed []);
      ("item", Dtd.Mixed []);
      ("total", Dtd.Mixed []);
      ("severity", Dtd.Mixed []);
      ("note", Dtd.Mixed []);
      ("ename", Dtd.Mixed []);
      ("salary", Dtd.Mixed []);
      ("sku", Dtd.Mixed []);
      ("qty", Dtd.Mixed []);
    ]

let generate ?(seed = 13) ~n_departments ~section_size () =
  let rng = Random.State.make [| seed |] in
  let leaf tag v = Tree.E (tag, [], [ Tree.T v ]) in
  let order i =
    Tree.E
      ( "order",
        [],
        List.init (1 + Random.State.int rng 3) (fun j ->
            leaf "item" (Printf.sprintf "i%d-%d" i j))
        @ [ leaf "total" (string_of_int (Random.State.int rng 1000)) ] )
  in
  let finding i =
    Tree.E
      ( "finding",
        [],
        [
          leaf "severity"
            (match Random.State.int rng 3 with
            | 0 -> "high"
            | 1 -> "medium"
            | _ -> "low");
          leaf "note" (Printf.sprintf "note-%d" i);
        ] )
  in
  let employee i =
    Tree.E
      ( "employee",
        [],
        [
          leaf "ename" (Printf.sprintf "emp-%d" i);
          leaf "salary" (string_of_int (30_000 + Random.State.int rng 50_000));
        ] )
  in
  let widget i =
    Tree.E
      ( "widget",
        [],
        [
          leaf "sku" (Printf.sprintf "sku-%d" i);
          leaf "qty" (string_of_int (Random.State.int rng 100));
        ] )
  in
  let section kind =
    match kind with
    | 0 -> Tree.E ("sales", [], List.init section_size order)
    | 1 -> Tree.E ("audit", [], List.init section_size finding)
    | 2 -> Tree.E ("hr", [], List.init section_size employee)
    | _ -> Tree.E ("inventory", [], List.init section_size widget)
  in
  let dept d =
    let first = Random.State.int rng 4 in
    let sections =
      if Random.State.int rng 100 < 30 then
        [ section first; section ((first + 1 + Random.State.int rng 3) mod 4) ]
      else [ section first ]
    in
    Tree.E ("dept", [], leaf "dname" (Printf.sprintf "dept-%d" d) :: sections)
  in
  Tree.of_source (Tree.E ("corp", [], List.init n_departments dept))

let queries =
  [
    ("audit notes", "//finding[severity = 'high']/note");
    ("salaries", "//employee/salary");
    ("order items", "dept/sales/order[total]/item");
    ("skus", "//widget/sku");
    ("names (anti-case)", "//dname");
  ]
