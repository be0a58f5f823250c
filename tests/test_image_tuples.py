"""Group elements are image tuples: a group lists its elements as the
chain's tuples, and ``Perm`` is built only to read generators from text
and to print cycles, so listing M11 in ``sgk group`` makes no ``Perm``
per element."""

from sgk import cli
from sgk.perm import GroupTable, Perm

M11 = ("(1 2 3 4 5 6 7 8 9 10 11)", "(3 7 11 8)(4 10 5 6)")


def test_group_lists_m11_without_a_perm_per_element(tmp_path, monkeypatch, capsys):
    path = tmp_path / "m11.grp"
    path.write_text("degree: 11\n" + "\n".join(M11) + "\n")
    built = []
    init = Perm.__init__

    def counted(self, images):
        built.append(None)
        init(self, images)

    monkeypatch.setattr(Perm, "__init__", counted)
    assert cli.main(["group", "--group", str(path)]) == 0
    assert '"order": 7920' in capsys.readouterr().out
    assert len(built) < 100


def test_elements_are_a_tuple_of_image_tuples():
    group = GroupTable(11, [Perm.from_cycles(text, 11) for text in M11])
    listed = group.elements
    assert type(listed) is tuple and len(listed) == 7920
    assert all(type(x) is tuple and len(x) == 11 for x in listed)
    assert listed[0] == tuple(range(11)) and tuple(group) == listed
