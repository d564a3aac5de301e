import pytest

from delpezzo1.serialize import to_canonical_json, to_text


@pytest.mark.parametrize("render", [to_canonical_json, to_text])
@pytest.mark.parametrize("value", [object(), 1.5, {1, 2}], ids=["object", "float", "set"])
def test_unlisted_type_raises(render, value):
    # no silent str(): a witness of a new type must not change the bytes unnoticed
    with pytest.raises(TypeError, match=f"no JSON form for {type(value).__name__}"):
        render({"x": [value]})
