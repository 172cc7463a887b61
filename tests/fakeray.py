"""An in-process stand-in for the part of the Ray API the crawl engine
uses: ``remote`` on a class, ``.remote()`` and ``.options(num_returns=)``
on its methods, ``get``, ``put``, ``kill`` and ``ObjectRef``.

Every call runs when it is submitted, so actor-mailbox FIFO holds
trivially; the Ray suites are what check Ray's ordering and
serialization.  As in Ray, an argument resolves only when it is a
top-level ``ObjectRef``, so a ref nested in a list or tuple stays a ref.
Install it for one test with
``monkeypatch.setitem(sys.modules, "ray", fakeray)``."""


class ObjectRef:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


def _call(fn, args, kwargs):
    def r(a):
        return a.value if isinstance(a, ObjectRef) else a

    return fn(*map(r, args), **{k: r(v) for k, v in kwargs.items()})


def put(value) -> ObjectRef:
    return ObjectRef(value)


def get(refs):
    if isinstance(refs, list):
        return [get(r) for r in refs]
    if not isinstance(refs, ObjectRef):
        raise TypeError(f"ray.get takes ObjectRefs, not {type(refs).__name__}")
    return refs.value


def kill(handle) -> None:
    handle._obj = None


class _Method:
    def __init__(self, fn, num_returns=1):
        self.fn, self.num_returns = fn, num_returns

    def options(self, num_returns=1):
        return _Method(self.fn, num_returns)

    def remote(self, *args, **kwargs):
        out = _call(self.fn, args, kwargs)
        if self.num_returns == 1:
            return ObjectRef(out)
        return [ObjectRef(o) for o in out]


class _Handle:
    def __init__(self, obj):
        self._obj = obj

    def __getattr__(self, name):
        if self._obj is None:
            raise RuntimeError("the actor was killed")
        return _Method(getattr(self._obj, name))


class _ActorClass:
    def __init__(self, cls):
        self.cls = cls

    def remote(self, *args, **kwargs):
        return _Handle(_call(self.cls, args, kwargs))


def remote(*args, **_options):
    """``ray.remote(cls)`` or ``ray.remote(num_cpus=...)(cls)``."""
    if args:
        return _ActorClass(args[0])
    return _ActorClass
