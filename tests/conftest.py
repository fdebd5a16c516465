from hypothesis import settings

# Property tests must neither time out on a slow or loaded machine nor
# draw different inputs from one run to the next. The deep profile
# (pytest --hypothesis-profile courttrack-deep) draws ten times as many.
settings.register_profile("courttrack", deadline=None, derandomize=True)
settings.register_profile("courttrack-deep", deadline=None, derandomize=True, max_examples=1000)
settings.load_profile("courttrack")
